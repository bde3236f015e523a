package synth

import (
	"context"
	"fmt"
	"strconv"

	"memdep/internal/engine"
)

// BuildKind is the engine job kind that builds a synthetic workload program.
const BuildKind = "synth/build"

// BuildJob is the engine spec for constructing a synthetic workload's program
// at a scale.  A Scale of 0 (or negative) runs at scale 1.  The job resolves
// to a *program.Program and is keyed on the full normalized spec (including
// the seed), so every request naming the same spec shares one build -- and,
// through it, one functional trace and one preprocessed work item.
type BuildJob struct {
	Spec  Spec
	Scale int
}

// JobKind implements engine.Spec.
func (BuildJob) JobKind() string { return BuildKind }

// CacheKey implements engine.Spec.
func (j BuildJob) CacheKey() string { return j.Spec.CanonicalJSON() + "@" + strconv.Itoa(j.Scale) }

// buildSimulator executes BuildJob specs.
type buildSimulator struct{}

// BuildSimulator returns the engine simulator for the synth/build kind.
func BuildSimulator() engine.Simulator { return buildSimulator{} }

func (buildSimulator) JobKind() string { return BuildKind }

func (buildSimulator) Simulate(_ context.Context, _ *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(BuildJob)
	if !ok {
		return nil, fmt.Errorf("synth: spec %T is not a BuildJob", spec)
	}
	if err := job.Spec.Validate(); err != nil {
		return nil, err
	}
	return job.Spec.Build(job.Scale), nil
}
