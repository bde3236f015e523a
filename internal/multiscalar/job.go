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
	return fmt.Sprintf("%s|max=%d,tasklen=%d",
		engine.Key(j.Program), j.Trace.MaxInstructions, j.Trace.MaxTaskLen)
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

// CacheKey implements engine.Spec.  The configuration is normalized first so
// that two configurations differing only in unset-defaulted fields share one
// cache entry; every distinguishing field (policy, stages, MDPT geometry,
// tagging scheme, DDC sizes, latencies, ...) participates in the key.  Only
// this package's tests select the stepped loop, so every other key prints
// Core:event, which keeps the persistent store's existing objects valid.
func (j SimulateJob) CacheKey() string {
	return fmt.Sprintf("%s|%+v", engine.Key(j.Item), j.Config.withDefaults())
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
	// Engine workers carry a per-goroutine scratch store: reuse the worker's
	// simulator arena across the jobs it executes.  Without one (a bare Do
	// outside a worker pool), fall back to the package pool.
	if sc := engine.ScratchFrom(ctx); sc != nil {
		sm, _ := sc.Get(SimulateKind).(*Simulator)
		if sm == nil {
			sm = NewSimulator()
			sc.Put(SimulateKind, sm)
		}
		return sm.Simulate(ctx, w, job.Config)
	}
	return SimulateContext(ctx, w, job.Config)
}
