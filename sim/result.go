package sim

import (
	"fmt"
	"maps"

	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
)

// Breakdown classifies committed loads by predicted-vs-actual dependence
// outcome, the four cells of the paper's Table 8.  Indexing is
// [predicted][actual] with 0 = no dependence, 1 = dependence; it encodes to
// JSON as a nested array [[n/n, n/y], [y/n, y/y]].
type Breakdown [2][2]uint64

// Total returns the number of classified loads.
func (b Breakdown) Total() uint64 { return b[0][0] + b[0][1] + b[1][0] + b[1][1] }

// Percent returns the percentage of loads in the given cell.
func (b Breakdown) Percent(predicted, actual int) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(b[predicted][actual]) / float64(t)
}

// MemDepStats mirrors the MDPT/MDST system counters.
type MemDepStats struct {
	LoadQueries             uint64 `json:"load_queries"`              // LoadQueries counts MDPT lookups made by issuing loads.
	LoadsPredictedDependent uint64 `json:"loads_predicted_dependent"` // LoadsPredictedDependent counts loads the MDPT predicted dependent.
	LoadsMadeToWait         uint64 `json:"loads_made_to_wait"`        // LoadsMadeToWait counts predicted loads that allocated an MDST entry and waited.
	LoadsSignalledEarly     uint64 `json:"loads_signalled_early"`     // LoadsSignalledEarly counts loads whose producing store had already signalled.
	StoreQueries            uint64 `json:"store_queries"`             // StoreQueries counts MDPT lookups made by issuing stores.
	StoresSignalled         uint64 `json:"stores_signalled"`          // StoresSignalled counts stores that signalled a waiting dependence.
	LoadsReleasedByStore    uint64 `json:"loads_released_by_store"`   // LoadsReleasedByStore counts waiting loads released by their store's signal.
	LoadsReleasedStale      uint64 `json:"loads_released_stale"`      // LoadsReleasedStale counts waiting loads released without a matching signal.
	Misspeculations         uint64 `json:"misspeculations"`           // Misspeculations counts dependence violations the predictor failed to avoid.
	ESyncFiltered           uint64 `json:"esync_filtered"`            // ESyncFiltered counts waits the ESYNC policy's confidence filter suppressed.
}

// ARBStats mirrors the address resolution buffer counters.
type ARBStats struct {
	Loads      uint64 `json:"loads"`       // Loads counts load addresses resolved through the ARB.
	Stores     uint64 `json:"stores"`      // Stores counts store addresses resolved through the ARB.
	Violations uint64 `json:"violations"`  // Violations counts store→load order violations the ARB detected.
	StallsFull uint64 `json:"stalls_full"` // StallsFull counts loads and stores whose ARB bank was full: each counts once and proceeds untracked; nothing stalls.
}

// CacheStats mirrors the memory hierarchy counters.
type CacheStats struct {
	InstrAccesses uint64 `json:"instr_accesses"` // InstrAccesses counts instruction-cache accesses.
	InstrMisses   uint64 `json:"instr_misses"`   // InstrMisses counts instruction-cache misses.
	DataAccesses  uint64 `json:"data_accesses"`  // DataAccesses counts data-cache accesses.
	DataMisses    uint64 `json:"data_misses"`    // DataMisses counts data-cache misses.
	BusTransfers  uint64 `json:"bus_transfers"`  // BusTransfers counts memory-bus block transfers.
	BusWait       uint64 `json:"bus_wait"`       // BusWait accumulates cycles spent waiting for the bus.
	BankWait      uint64 `json:"bank_wait"`      // BankWait accumulates cycles spent waiting on a busy cache bank.
}

// SequencerStats mirrors the task sequencer counters.
type SequencerStats struct {
	TaskDispatches   uint64  `json:"task_dispatches"`    // TaskDispatches counts tasks assigned to processing units.
	Mispredictions   uint64  `json:"mispredictions"`     // Mispredictions counts next-task predictions that squashed.
	DescriptorMisses uint64  `json:"descriptor_misses"`  // DescriptorMisses counts task-descriptor cache misses.
	PredictorAcc     float64 `json:"predictor_accuracy"` // PredictorAcc is the next-task predictor hit rate in [0, 1].
}

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
	ARBBypasses             uint64  `json:"arb_bypasses"`              // ARBBypasses counts loads and stores whose ARB bank was full: each counts once and proceeds untracked; nothing stalls.

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
		ARBBypasses:             res.ARBBypasses,

		Breakdown: Breakdown(res.Breakdown),

		MemDep:    MemDepStats(res.MemDep),
		ARB:       ARBStats(res.ARB),
		Cache:     CacheStats(res.Cache),
		Sequencer: SequencerStats(res.Sequencer),
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
