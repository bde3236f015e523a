package experiments

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"memdep/internal/stats"
)

// TestDriversDeterministicAcrossWorkerCounts checks the engine's central
// guarantee: the same experiment grid run with 1 worker and with N workers
// produces byte-identical stats.Table output.
func TestDriversDeterministicAcrossWorkerCounts(t *testing.T) {
	drivers := []struct {
		id  string
		run func(*Runner, context.Context) (*stats.Table, error)
	}{
		{"table6", (*Runner).Table6MultiscalarMisspec},
		{"table8", (*Runner).Table8PredictionBreakdown},
		{"table9", (*Runner).Table9MisspecPerLoad},
		{"figure5", (*Runner).Figure5PolicyComparison},
		{"sensitivity-predictor", (*Runner).SensitivityPredictorOrg},
	}
	render := func(jobs int) map[string]string {
		r := NewRunnerWithEngine(Quick(), NewEngine(jobs))
		out := map[string]string{}
		for _, d := range drivers {
			tab, err := d.run(r, context.Background())
			if err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, d.id, err)
			}
			out[d.id] = tab.Render()
		}
		return out
	}
	serial := render(1)
	for _, jobs := range []int{2, 8} {
		parallel := render(jobs)
		for _, d := range drivers {
			if serial[d.id] != parallel[d.id] {
				t.Errorf("%s: output differs between 1 worker and %d workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
					d.id, jobs, serial[d.id], jobs, parallel[d.id])
			}
		}
	}
}

// TestConcurrentDriversShareOneRunner fires every table and figure driver
// from its own goroutine against one shared Runner.  Run under -race this
// exercises the engine's concurrent cache path: the drivers overlap heavily
// (shared work items, shared ALWAYS baselines), so the singleflight
// deduplication and the memoized cache are both hit from many goroutines at
// once.
func TestConcurrentDriversShareOneRunner(t *testing.T) {
	opts := Quick()
	opts.MaxInstructions = 10_000 // keep the -race run short
	r := newRunner(opts)

	var wg sync.WaitGroup
	for _, e := range All() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := e.Run(r, context.Background())
			if err != nil {
				t.Errorf("%s: %v", e.ID, err)
				return
			}
			if tab.NumRows() == 0 {
				t.Errorf("%s: empty table", e.ID)
			}
		}()
	}
	wg.Wait()

	// The concurrent drivers must have deduplicated their shared jobs: every
	// executed job is memoized exactly once, so the number of cache entries
	// must equal the number of executions.
	eng := r.eng
	if eng.Executed() != uint64(eng.CacheLen()) {
		t.Errorf("executed %d jobs but cache holds %d: duplicate executions slipped through",
			eng.Executed(), eng.CacheLen())
	}
	if eng.Hits() == 0 {
		t.Error("concurrent drivers shared no jobs; expected heavy cache reuse")
	}
}

// TestRunAllNamesTheFirstFailure runs fake drivers side by side.  The error
// reported is the first failure in presentation order, named by its
// experiment, even when a later driver fails sooner; the tables before it
// are yielded, and a driver still running afterwards is cancelled.
func TestRunAllNamesTheFirstFailure(t *testing.T) {
	table := func(*Runner, context.Context) (*stats.Table, error) { return stats.NewTable("t", "c"), nil }
	laterFailed := make(chan struct{})
	exps := []NamedExperiment{
		{ID: "ok", Run: table},
		{ID: "first", Run: func(*Runner, context.Context) (*stats.Table, error) {
			<-laterFailed
			return nil, errors.New("kaput")
		}},
		{ID: "second", Run: func(*Runner, context.Context) (*stats.Table, error) {
			defer close(laterFailed)
			return nil, errors.New("also kaput")
		}},
		{ID: "blocked", Run: func(_ *Runner, ctx context.Context) (*stats.Table, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}},
	}
	var yielded []string
	err := quickRunner().RunAll(context.Background(), exps, func(e NamedExperiment, _ *stats.Table) {
		yielded = append(yielded, e.ID)
	})
	if err == nil || err.Error() != "first: kaput" {
		t.Errorf("RunAll error = %v, want \"first: kaput\"", err)
	}
	if !slices.Equal(yielded, []string{"ok"}) {
		t.Errorf("yielded %v, want the tables before the failure: [ok]", yielded)
	}
}
