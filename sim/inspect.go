package sim

import (
	"context"
	"fmt"
	"maps"
	"math"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
	"memdep/internal/trace"
	"memdep/internal/window"
)

// TraceRequest describes a functional (non-timing) inspection of a
// workload: the committed instruction stream of the paper's "total order".
type TraceRequest struct {
	// Bench names the benchmark.  Exactly one of Bench or Synth must be set.
	Bench string `json:"bench,omitempty"`
	// Synth describes an inline synthetic workload instead of a named
	// benchmark.
	Synth *SynthSpec `json:"synth,omitempty"`
	// Scale overrides the workload scale (0 = the benchmark's default).
	Scale int `json:"scale,omitempty"`
	// MaxInstructions caps the committed instructions (0 = unlimited).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
}

// validate resolves the workload's metadata, effective scale and program job.
func (r TraceRequest) validate() (workloadMeta, error) {
	return resolveWorkload(r.Bench, r.Synth, r.Scale, &ValidationError{})
}

// TraceSummary reports the static shape and committed dynamic stream of a
// benchmark.
type TraceSummary struct {
	Bench       string `json:"bench"`       // Bench is the workload's canonical name.
	Suite       string `json:"suite"`       // Suite is the benchmark family the workload belongs to.
	Description string `json:"description"` // Description is the workload's one-line synopsis.
	Scale       int    `json:"scale"`       // Scale is the effective iteration-scale factor.

	StaticInstructions int `json:"static_instructions"` // StaticInstructions counts instructions in the program image.
	StaticLoads        int `json:"static_loads"`        // StaticLoads counts static load instructions.
	StaticStores       int `json:"static_stores"`       // StaticStores counts static store instructions.

	Instructions uint64 `json:"instructions"` // Instructions counts committed dynamic instructions.
	Loads        uint64 `json:"loads"`        // Loads counts committed dynamic loads.
	Stores       uint64 `json:"stores"`       // Stores counts committed dynamic stores.
	Branches     uint64 `json:"branches"`     // Branches counts committed dynamic branches.
	Tasks        uint64 `json:"tasks"`        // Tasks counts committed Multiscalar tasks.
}

// AvgTaskSize returns the average dynamic task size in instructions.
func (s *TraceSummary) AvgTaskSize() float64 {
	if s.Tasks == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Tasks)
}

// Trace runs the benchmark on the functional simulator (memoized) and
// summarises it.
func (s *Session) Trace(ctx context.Context, req TraceRequest) (*TraceSummary, error) {
	m, err := req.validate()
	if err != nil {
		return nil, err
	}
	prog, err := engine.Resolve[*program.Program](ctx, s.eng, m.job)
	if err != nil {
		return nil, err
	}
	st, err := engine.Resolve[trace.Stats](ctx, s.eng, trace.RunJob{
		Program: m.job,
		Config:  trace.Config{MaxInstructions: req.MaxInstructions},
	})
	if err != nil {
		return nil, err
	}
	return &TraceSummary{
		Bench:              m.name,
		Suite:              m.suite,
		Description:        m.description,
		Scale:              m.scale,
		StaticInstructions: prog.Len(),
		StaticLoads:        len(prog.StaticLoads()),
		StaticStores:       len(prog.StaticStores()),
		Instructions:       st.Instructions,
		Loads:              st.Loads,
		Stores:             st.Stores,
		Branches:           st.Branches,
		Tasks:              st.Tasks,
	}, nil
}

// Disassemble returns the workload's full static disassembly.
func (s *Session) Disassemble(ctx context.Context, req TraceRequest) (string, error) {
	m, err := req.validate()
	if err != nil {
		return "", err
	}
	prog, err := engine.Resolve[*program.Program](ctx, s.eng, m.job)
	if err != nil {
		return "", err
	}
	return prog.Disassemble(), nil
}

// TaskSizeBucket is one row of the dynamic task-size histogram.
type TaskSizeBucket struct {
	// Label names the size range ("1-16", ..., "513+").
	Label string `json:"label"`
	// Tasks is the number of dynamic tasks in the range.
	Tasks int `json:"tasks"`
}

// taskSizeBuckets are the histogram ranges, matching the paper's discussion
// of task granularity.
var taskSizeBuckets = []struct {
	label string
	max   int
}{
	{"1-16", 16}, {"17-32", 32}, {"33-64", 64}, {"65-128", 128},
	{"129-256", 256}, {"257-512", 512}, {"513+", math.MaxInt},
}

// TaskSizes histograms the benchmark's dynamic task sizes.  Every bucket is
// present in range order, including empty ones.  It reads the task windows
// of the workload's work item (memoized), the one Run simulates for the same
// workload and instruction bound.
func (s *Session) TaskSizes(ctx context.Context, req TraceRequest) ([]TaskSizeBucket, error) {
	m, err := req.validate()
	if err != nil {
		return nil, err
	}
	item, err := engine.Resolve[*multiscalar.WorkItem](ctx, s.eng, itemJob(m.job, req.MaxInstructions))
	if err != nil {
		return nil, err
	}
	hist := make([]TaskSizeBucket, len(taskSizeBuckets))
	for i, b := range taskSizeBuckets {
		hist[i].Label = b.label
	}
	for t := range item.Tasks() {
		n := item.TaskLen(t)
		for i, b := range taskSizeBuckets {
			if n <= b.max {
				hist[i].Tasks++
				break
			}
		}
	}
	return hist, nil
}

// WindowRequest describes an unrealistic-OOO window analysis (the paper's
// section 5.3): worst-case mis-speculations, static dependence coverage and
// DDC miss rates per window size.
type WindowRequest struct {
	// Bench names the benchmark.  Exactly one of Bench or Synth must be set.
	Bench string `json:"bench,omitempty"`
	// Synth describes an inline synthetic workload instead of a named
	// benchmark.
	Synth *SynthSpec `json:"synth,omitempty"`
	// Scale overrides the workload scale (0 = the benchmark's default).
	Scale int `json:"scale,omitempty"`
	// MaxInstructions caps the committed instructions (0 = unlimited).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// WindowSizes lists the instruction window sizes to analyse (nil = the
	// Tables 3-5 sizes 8..512).  Every size must be positive.
	WindowSizes []int `json:"window_sizes,omitempty"`
	// DDCSizes lists the data dependence cache sizes to study (nil = the
	// Table 5 sizes 32, 128, 512).  Every size must be positive.
	DDCSizes []int `json:"ddc_sizes,omitempty"`
}

// WindowResult reports the dependence statistics of one window size.
type WindowResult struct {
	WindowSize       int     `json:"window_size"`        // WindowSize is the instruction window size analysed.
	Loads            uint64  `json:"loads"`              // Loads counts loads observed in the window stream.
	Misspeculations  uint64  `json:"misspeculations"`    // Misspeculations counts dependence violations at this window size.
	MisspecsPerLoad  float64 `json:"misspecs_per_load"`  // MisspecsPerLoad is Misspeculations per load.
	StaticPairs      int     `json:"static_pairs"`       // StaticPairs counts distinct static store→load pairs observed.
	PairsForCoverage int     `json:"pairs_for_coverage"` // PairsForCoverage is how many top pairs cover 99.9% of violations.
	// DDCMissRate maps DDC size to its miss percentage.
	DDCMissRate map[int]float64 `json:"ddc_miss_rate,omitempty"`
	// Pairs lists the observed static dependences by decreasing frequency,
	// annotated with their disassembly.
	Pairs []PairCount `json:"pairs,omitempty"`
}

// validate resolves the request's workload and checks its size lists.
func (r WindowRequest) validate() (workloadMeta, error) {
	v := &ValidationError{}
	checkSizes("window_sizes", r.WindowSizes, v)
	checkSizes("ddc_sizes", r.DDCSizes, v)
	return resolveWorkload(r.Bench, r.Synth, r.Scale, v)
}

// Window runs the window analysis (memoized), one result per window size in
// increasing order.  The analysis reads the workload's work item: the same
// memoized job Run simulates for the workload and instruction bound, so the
// two share one functional pass.
func (s *Session) Window(ctx context.Context, req WindowRequest) ([]WindowResult, error) {
	grids, err := s.WindowGrid(ctx, []WindowRequest{req})
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

// WindowGrid runs several window analyses as one job set: the analyses fan
// out over the session's worker pool (one engine job each, over the
// memoized work item of each workload) and share the memoized cache.  A
// request with an invalid workload or a non-positive window or DDC size
// fails the grid with a *ValidationError, prefixed with its index when the
// grid holds several requests.  Results are positional: results[i] answers
// reqs[i].
func (s *Session) WindowGrid(ctx context.Context, reqs []WindowRequest) ([][]WindowResult, error) {
	progs := make([]engine.Spec, len(reqs))
	b := s.eng.NewBatch()
	refs := make([]engine.Ref, len(reqs))
	for i, req := range reqs {
		m, err := req.validate()
		if err != nil {
			if len(reqs) > 1 {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			return nil, err
		}
		progs[i] = m.job
		refs[i] = b.Add(window.AnalyzeJob{
			Item:   itemJob(m.job, req.MaxInstructions),
			Config: window.Config{WindowSizes: req.WindowSizes, DDCSizes: req.DDCSizes},
		})
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}
	out := make([][]WindowResult, len(reqs))
	for i := range reqs {
		prog, err := engine.Resolve[*program.Program](ctx, s.eng, progs[i])
		if err != nil {
			return nil, err
		}
		out[i] = convertWindowResults(engine.Get[[]window.Result](b, refs[i]), prog)
	}
	return out, nil
}

// convertWindowResults maps internal analysis results to the public shape.
func convertWindowResults(results []window.Result, prog *program.Program) []WindowResult {
	out := make([]WindowResult, len(results))
	for i, r := range results {
		out[i] = WindowResult{
			WindowSize:       r.WindowSize,
			Loads:            r.Loads,
			Misspeculations:  r.Misspeculations,
			MisspecsPerLoad:  r.MisspecRate(),
			StaticPairs:      r.StaticPairs,
			PairsForCoverage: r.PairsForCoverage,
			Pairs:            annotatePairs(r.PairCounts, prog),
		}
		if len(r.DDCMissRate) > 0 {
			rates := make(map[int]float64, len(r.DDCMissRate))
			maps.Copy(rates, r.DDCMissRate)
			out[i].DDCMissRate = rates
		}
	}
	return out
}

// DefaultWindowSizes returns the window sizes of the paper's Tables 3-5.
func DefaultWindowSizes() []int { return window.DefaultWindowSizes() }

// DefaultDDCSizes returns the DDC sizes of the paper's Table 5.
func DefaultDDCSizes() []int { return window.DefaultDDCSizes() }
