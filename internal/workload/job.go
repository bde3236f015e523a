package workload

import (
	"context"
	"fmt"
	"strconv"

	"memdep/internal/engine"
)

// BuildKind is the engine job kind that builds a benchmark program.
const BuildKind = "workload/build"

// BuildJob is the engine spec for constructing a benchmark's program at a
// scale.  A Scale of 0 (or negative) selects the benchmark's default scale.
// The job resolves to a *program.Program.
type BuildJob struct {
	Name  string
	Scale int
}

// JobKind implements engine.Spec.
func (BuildJob) JobKind() string { return BuildKind }

// CacheKey implements engine.Spec.
func (j BuildJob) CacheKey() string { return j.Name + "@" + strconv.Itoa(j.Scale) }

// buildSimulator executes BuildJob specs.
type buildSimulator struct{}

// BuildSimulator returns the engine simulator for the workload/build kind.
func BuildSimulator() engine.Simulator { return buildSimulator{} }

func (buildSimulator) JobKind() string { return BuildKind }

func (buildSimulator) Simulate(_ context.Context, _ *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(BuildJob)
	if !ok {
		return nil, fmt.Errorf("workload: spec %T is not a BuildJob", spec)
	}
	w, err := Get(job.Name)
	if err != nil {
		return nil, err
	}
	scale := job.Scale
	if scale <= 0 {
		scale = w.DefaultScale
	}
	return w.Build(scale), nil
}
