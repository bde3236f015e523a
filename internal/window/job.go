package window

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
)

// AnalyzeKind is the engine job kind for the unrealistic OOO window analysis.
const AnalyzeKind = "window/analyze"

// AnalyzeJob is the engine spec for running the window analysis over a work
// item.  Item must resolve to a *multiscalar.WorkItem (typically the
// multiscalar.PreprocessJob the timing simulations of the same workload
// share).  The job resolves to a []window.Result, one per window size in
// increasing order.
type AnalyzeJob struct {
	Item   engine.Spec
	Config Config
}

// JobKind implements engine.Spec.
func (AnalyzeJob) JobKind() string { return AnalyzeKind }

// CacheKey implements engine.Spec.
func (j AnalyzeJob) CacheKey() string {
	cfg := j.Config.withDefaults()
	return fmt.Sprintf("%s|ws=%v,ddc=%v", engine.Key(j.Item), cfg.WindowSizes, cfg.DDCSizes)
}

// analyzeSimulator executes AnalyzeJob specs.
type analyzeSimulator struct{}

// AnalyzeSimulator returns the engine simulator for the window/analyze kind.
func AnalyzeSimulator() engine.Simulator { return analyzeSimulator{} }

func (analyzeSimulator) JobKind() string { return AnalyzeKind }

func (analyzeSimulator) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(AnalyzeJob)
	if !ok {
		return nil, fmt.Errorf("window: spec %T is not an AnalyzeJob", spec)
	}
	w, err := engine.Resolve[*multiscalar.WorkItem](ctx, eng, job.Item)
	if err != nil {
		return nil, err
	}
	return Analyze(w, job.Config), nil
}
