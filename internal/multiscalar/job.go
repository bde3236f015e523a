package multiscalar

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/program"
	"memdep/internal/trace"
)

// PreprocessKind is the engine job kind that turns a program into a WorkItem.
const PreprocessKind = "multiscalar/preprocess"

// SimulateKind is the engine job kind for a Multiscalar timing simulation.
const SimulateKind = "multiscalar/simulate"

// PreprocessJob is the engine spec for running a program on the functional
// simulator and building the task-structured work item.  Program must resolve
// to a *program.Program (typically a workload.BuildJob).  The job resolves to
// a *multiscalar.WorkItem, which is immutable and shared by every simulation
// that consumes it.
type PreprocessJob struct {
	Program engine.Spec
	Trace   trace.Config
}

// JobKind implements engine.Spec.
func (PreprocessJob) JobKind() string { return PreprocessKind }

// CacheKey implements engine.Spec.
func (j PreprocessJob) CacheKey() string {
	return fmt.Sprintf("%s|max=%d", engine.Key(j.Program), j.Trace.MaxInstructions)
}

// preprocessSimulator executes PreprocessJob specs.
type preprocessSimulator struct{}

// PreprocessSimulator returns the engine simulator for the
// multiscalar/preprocess kind.
func PreprocessSimulator() engine.Simulator { return preprocessSimulator{} }

func (preprocessSimulator) JobKind() string { return PreprocessKind }

func (preprocessSimulator) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(PreprocessJob)
	if !ok {
		return nil, fmt.Errorf("multiscalar: spec %T is not a PreprocessJob", spec)
	}
	p, err := engine.Resolve[*program.Program](ctx, eng, job.Program)
	if err != nil {
		return nil, err
	}
	return Preprocess(p, job.Trace)
}

// SimulateJob is the engine spec for one timing simulation.  Item must
// resolve to a *multiscalar.WorkItem (typically a PreprocessJob).  The job
// resolves to a multiscalar.Result.
type SimulateJob struct {
	Item   engine.Spec
	Config Config
}

// JobKind implements engine.Spec.
func (SimulateJob) JobKind() string { return SimulateKind }

// CacheKey implements engine.Spec.  It encodes the effective configuration
// (withDefaults), so configurations that run identically share one entry,
// and it names every field that can change what a run returns.  Two fields
// stay out:
// Core, because both run loops produce identical Results
// (TestCoresCycleIdentical), and MemDep.SyncSlots, which is derived from
// Stages.  TestCacheKeyCoversConfig fails when a field is added to Config or
// memdep.Config without joining the key or the exemptions.
func (j SimulateJob) CacheKey() string {
	c := j.Config.withDefaults()
	md := c.MemDep
	return fmt.Sprintf("%s|stages=%d,policy=%v,mdpt=%v/%dx%d,bits=%d,pred=%v,addrtag=%t,ddc=%v,max=%d",
		engine.Key(j.Item), c.Stages, c.Policy, md.Table, md.Entries, md.Ways,
		md.CounterBits, md.Predictor, md.TagByAddress, c.DDCSizes, c.MaxCycles)
}

// simulateSimulator executes SimulateJob specs.
type simulateSimulator struct{}

// SimulateSimulator returns the engine simulator for the multiscalar/simulate
// kind.
func SimulateSimulator() engine.Simulator { return simulateSimulator{} }

func (simulateSimulator) JobKind() string { return SimulateKind }

func (simulateSimulator) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(SimulateJob)
	if !ok {
		return nil, fmt.Errorf("multiscalar: spec %T is not a SimulateJob", spec)
	}
	w, err := engine.Resolve[*WorkItem](ctx, eng, job.Item)
	if err != nil {
		return nil, err
	}
	// The arena comes from the package pool, which every simulate job and
	// one-shot call share, so a single request reuses one as a grid does.
	return SimulateContext(ctx, w, job.Config)
}
