// Package experiments contains one driver per table and figure of the
// paper's evaluation (section 5), plus ablation studies for the design
// choices called out in DESIGN.md.  Each driver returns a stats.Table whose
// rows mirror the corresponding table or figure, regenerated on the synthetic
// workload suite.
//
// The drivers share a Runner built on the job engine (internal/engine): each
// driver declares its whole benchmark × configuration grid as a job set, the
// engine executes the set on a worker pool, and the driver assembles the
// table from the positional results.  Jobs are memoized engine-wide with
// singleflight deduplication, so for example the ALWAYS baseline computed for
// Figure 5 is reused by Figure 6 and Table 9 -- even when those drivers run
// concurrently from different goroutines, as RunAll runs them.  Because
// assembly is positional and the simulators are deterministic, a driver's
// output is byte-identical at every worker count.
package experiments

import (
	"memdep/internal/engine"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale overrides every workload's default scale when positive.
	Scale int
	// MaxInstructions caps the number of committed instructions per
	// benchmark (0 = run each benchmark to completion at its scale).  The
	// quick presets use this to keep unit-test and benchmark runs short.
	MaxInstructions uint64
	// MDPTEntries sets the prediction-table size (0 = memdep.DefaultEntries,
	// the paper's evaluated configuration).
	MDPTEntries int
	// PredictorTable selects the prediction-table organization applied to
	// every standard simulation (default: the paper's fully associative
	// MDPT).  The sensitivity-sweep driver varies the organization itself
	// and ignores this override.
	PredictorTable memdep.TableKind
	// MDPTWays sets the associativity for the set-associative and store-set
	// organizations (0 = the memdep default of 4).
	MDPTWays int
	// SynthBase overrides the base synthetic-workload spec swept by the
	// sensitivity-synth driver (nil = the synth package defaults).  The
	// driver varies the dependence-distance histogram and alias-set size on
	// top of this base.
	SynthBase *synth.Spec
}

// Quick returns options suitable for unit tests and Go benchmarks: the same
// experiments on truncated runs.
func Quick() Options {
	return Options{Scale: 1, MaxInstructions: 40_000}
}

// Full returns the options used to produce EXPERIMENTS.md: every workload at
// its default scale, run to completion.
func Full() Options {
	return Options{}
}

// stageCounts are the Multiscalar configurations the paper evaluates.
var stageCounts = []int{4, 8}

// NewEngine creates a job engine with every evaluation layer registered:
// workload building (committed suite and synthetic generator), functional
// tracing, window analysis, Multiscalar preprocessing and timing simulation.
func NewEngine(workers int) *engine.Engine {
	e := engine.New(workers)
	e.Register(
		workload.BuildSimulator(),
		synth.BuildSimulator(),
		trace.RunSimulator(),
		window.AnalyzeSimulator(),
		multiscalar.PreprocessSimulator(),
		multiscalar.SimulateSimulator(),
	)
	return e
}

// Runner executes experiments.  It carries no mutable state of its own --
// programs, work items and simulation results are memoized inside the shared
// engine -- so one Runner may be used from any number of goroutines.
type Runner struct {
	opts Options
	eng  *engine.Engine
}

// NewRunnerWithEngine creates a runner on an existing engine, sharing its job
// cache with every other runner on that engine.
func NewRunnerWithEngine(opts Options, eng *engine.Engine) *Runner {
	return &Runner{opts: opts, eng: eng}
}

// traceConfig returns the functional-run bounds for the current options.
func (r *Runner) traceConfig() trace.Config {
	return trace.Config{MaxInstructions: r.opts.MaxInstructions}
}

// --- job-spec builders -------------------------------------------------------

// programSpec declares the program-build job of a benchmark at the configured
// scale.
func (r *Runner) programSpec(name string) engine.Spec {
	return workload.BuildJob{Name: name, Scale: r.opts.Scale}
}

// workItemSpec declares the preprocessing job of a benchmark.
func (r *Runner) workItemSpec(name string) engine.Spec {
	return multiscalar.PreprocessJob{Program: r.programSpec(name), Trace: r.traceConfig()}
}

// simConfig builds the Multiscalar configuration for a policy and stage
// count.
func (r *Runner) simConfig(stages int, pol policy.Kind) multiscalar.Config {
	cfg := multiscalar.DefaultConfig(stages, pol)
	cfg.MemDep.Entries = r.opts.MDPTEntries
	cfg.MemDep.Table = r.opts.PredictorTable
	cfg.MemDep.Ways = r.opts.MDPTWays
	return cfg
}

// simSpec declares the timing simulation of one benchmark under the standard
// configuration for a policy and stage count.
func (r *Runner) simSpec(name string, stages int, pol policy.Kind) engine.Spec {
	return r.simSpecWith(name, r.simConfig(stages, pol))
}

// simSpecWith declares a timing simulation under a customised configuration
// (used by Table 7 and the ablation drivers).
func (r *Runner) simSpecWith(name string, cfg multiscalar.Config) engine.Spec {
	return multiscalar.SimulateJob{Item: r.workItemSpec(name), Config: cfg}
}

// windowSpec declares the unrealistic-OOO analysis of one benchmark at the
// Tables 3-5 window and DDC sizes, over the work item its timing simulations
// share.
func (r *Runner) windowSpec(name string) engine.Spec {
	return window.AnalyzeJob{Item: r.workItemSpec(name)}
}
