package trace

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/program"
)

// RunKind is the engine job kind for a functional simulation run.
const RunKind = "trace/run"

// RunJob is the engine spec for executing a program on the functional
// simulator.  Program must resolve to a *program.Program (typically a
// workload.BuildJob).  The job resolves to a trace.Stats; the facade's trace
// summary is its one consumer.
type RunJob struct {
	Program engine.Spec
	Config  Config
}

// JobKind implements engine.Spec.
func (RunJob) JobKind() string { return RunKind }

// CacheKey implements engine.Spec.
func (j RunJob) CacheKey() string {
	return fmt.Sprintf("%s|max=%d", engine.Key(j.Program), j.Config.MaxInstructions)
}

// runSimulator executes RunJob specs.
type runSimulator struct{}

// RunSimulator returns the engine simulator for the trace/run kind.
func RunSimulator() engine.Simulator { return runSimulator{} }

func (runSimulator) JobKind() string { return RunKind }

func (runSimulator) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(RunJob)
	if !ok {
		return nil, fmt.Errorf("trace: spec %T is not a RunJob", spec)
	}
	p, err := engine.Resolve[*program.Program](ctx, eng, job.Program)
	if err != nil {
		return nil, err
	}
	return Run(p, job.Config, nil)
}
