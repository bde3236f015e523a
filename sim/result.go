package sim

import (
	"fmt"
	"maps"

	"memdep/internal/arb"
	"memdep/internal/cache"
	"memdep/internal/ctrlflow"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
)

// Breakdown classifies committed loads by predicted-vs-actual dependence
// outcome, the four cells of the paper's Table 8.  It is the core's own
// type: go doc memdep/internal/multiscalar.PredictionBreakdown.
type Breakdown = multiscalar.PredictionBreakdown

// MemDepStats is the MDPT/MDST predictor counters.  Its fields and JSON
// names are documented where the core defines them: go doc
// memdep/internal/memdep.SystemStats.
type MemDepStats = memdep.SystemStats

// ARBStats is the address resolution buffer counters: go doc
// memdep/internal/arb.Stats.
type ARBStats = arb.Stats

// CacheStats is the memory hierarchy counters: go doc
// memdep/internal/cache.Stats.
type CacheStats = cache.Stats

// SequencerStats is the task sequencer counters: go doc
// memdep/internal/ctrlflow.SequencerStats.
type SequencerStats = ctrlflow.SequencerStats

// PairCount is one static store→load dependence pair with its observed event
// count, annotated with the static instruction indices and disassembled text
// so clients need no access to the program image.
type PairCount struct {
	StorePC    uint64 `json:"store_pc"`    // StorePC is the store's program counter.
	LoadPC     uint64 `json:"load_pc"`     // LoadPC is the load's program counter.
	StoreIndex int    `json:"store_index"` // StoreIndex is the store's static instruction index.
	LoadIndex  int    `json:"load_index"`  // LoadIndex is the load's static instruction index.
	Store      string `json:"store"`       // Store is the store's disassembled text.
	Load       string `json:"load"`        // Load is the load's disassembled text.
	Count      uint64 `json:"count"`       // Count is how many times the pair's event occurred.
}

// Result is the response to one simulation Request.  Request echoes the
// normalized request the result answers (defaults applied, enums
// canonicalized, effective table geometry).
type Result struct {
	// Request echoes the normalized request this result answers.
	Request Request `json:"request"`

	// Timing.
	Cycles int64   `json:"cycles"` // Cycles is the simulated execution time.
	IPC    float64 `json:"ipc"`    // IPC is committed instructions per cycle.

	// Committed work (identical across policies for the same work item).
	Instructions uint64  `json:"instructions"`  // Instructions counts committed instructions.
	Loads        uint64  `json:"loads"`         // Loads counts committed loads.
	Stores       uint64  `json:"stores"`        // Stores counts committed stores.
	Tasks        uint64  `json:"tasks"`         // Tasks counts committed Multiscalar tasks.
	AvgTaskSize  float64 `json:"avg_task_size"` // AvgTaskSize is the mean dynamic instructions per task.

	// Speculation outcomes.
	Misspeculations         uint64  `json:"misspeculations"`           // Misspeculations counts memory dependence violations.
	MisspecsPerLoad         float64 `json:"misspecs_per_load"`         // MisspecsPerLoad is Misspeculations per committed load.
	Squashes                uint64  `json:"squashes"`                  // Squashes counts task squashes triggered by violations.
	SquashedInstructions    uint64  `json:"squashed_instructions"`     // SquashedInstructions counts instructions discarded by squashes.
	LoadsWaited             uint64  `json:"loads_waited"`              // LoadsWaited counts loads the policy made wait for a store.
	WaitCycles              uint64  `json:"wait_cycles"`               // WaitCycles accumulates cycles loads spent waiting.
	FalseDependenceReleases uint64  `json:"false_dependence_releases"` // FalseDependenceReleases counts waits for dependences that never materialized.

	// Breakdown classifies committed loads for Table 8 (meaningful for the
	// predictor-driven policies).
	Breakdown Breakdown `json:"breakdown"`

	// Subsystem counters.
	MemDep    MemDepStats    `json:"memdep"`    // MemDep is the MDPT/MDST predictor counters.
	ARB       ARBStats       `json:"arb"`       // ARB is the address resolution buffer counters.
	Cache     CacheStats     `json:"cache"`     // Cache is the memory hierarchy counters.
	Sequencer SequencerStats `json:"sequencer"` // Sequencer is the task sequencer counters.

	// DDCMissRate reports, for each size in Request.DDCSizes, the percentage
	// of mis-speculations whose static pair missed in a DDC of that size.
	DDCMissRate map[int]float64 `json:"ddc_miss_rate,omitempty"`

	// MisspecPairs lists the detected violations per static store→load pair,
	// ordered by decreasing count (ties broken by PC, deterministically).
	MisspecPairs []PairCount `json:"misspec_pairs,omitempty"`
}

// UsesPredictor reports whether the result's policy drives the MDPT/MDST
// hardware (and hence whether Breakdown and MemDep are meaningful).
func (r *Result) UsesPredictor() bool {
	k, err := r.Request.Policy.kind()
	return err == nil && k.UsesPredictor()
}

// SpeedupOver returns the percentage speedup of r relative to base (positive
// when r is faster).
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Cycles)/float64(r.Cycles) - 1)
}

// newResult converts an internal simulation result into the public shape.
// prog and item annotate the mis-speculated pairs and the task structure;
// either may be nil (uncached benchmarking runs skip the annotation).
func newResult(req Request, res multiscalar.Result, item *multiscalar.WorkItem, prog *program.Program) *Result {
	out := &Result{
		Request: req,

		Cycles: res.Cycles,
		IPC:    res.IPC(),

		Instructions: res.Instructions,
		Loads:        res.Loads,
		Stores:       res.Stores,
		Tasks:        res.Tasks,

		Misspeculations:         res.Misspeculations,
		MisspecsPerLoad:         res.MisspecsPerCommittedLoad(),
		Squashes:                res.Squashes,
		SquashedInstructions:    res.SquashedInstructions,
		LoadsWaited:             res.LoadsWaited,
		WaitCycles:              res.WaitCycles,
		FalseDependenceReleases: res.FalseDependenceReleases,

		Breakdown: res.Breakdown,

		MemDep:    res.MemDep,
		ARB:       res.ARB,
		Cache:     res.Cache,
		Sequencer: res.Sequencer,
	}
	if item != nil {
		out.AvgTaskSize = item.AvgTaskSize()
	}
	if len(res.DDCMissRate) > 0 {
		out.DDCMissRate = make(map[int]float64, len(res.DDCMissRate))
		maps.Copy(out.DDCMissRate, res.DDCMissRate)
	}
	out.MisspecPairs = annotatePairs(res.MisspecPairs, prog)
	return out
}

// annotatePairs flattens a pair→count map into the public, deterministically
// ordered and (when prog is available) disassembly-annotated form.
func annotatePairs(counts map[memdep.PairKey]uint64, prog *program.Program) []PairCount {
	if len(counts) == 0 {
		return nil
	}
	out := make([]PairCount, 0, len(counts))
	for _, pc := range memdep.SortedPairCounts(counts) {
		p := PairCount{StorePC: pc.Pair.StorePC, LoadPC: pc.Pair.LoadPC, Count: pc.N}
		if prog != nil {
			p.StoreIndex = prog.Index(pc.Pair.StorePC)
			p.LoadIndex = prog.Index(pc.Pair.LoadPC)
			p.Store = fmt.Sprint(prog.Code[p.StoreIndex])
			p.Load = fmt.Sprint(prog.Code[p.LoadIndex])
		}
		out = append(out, p)
	}
	return out
}
