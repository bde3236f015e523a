package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// echoSpec is a trivial job: its result is its own id, optionally failing or
// panicking, optionally resolving a dependency first.
type echoSpec struct {
	id     string
	fail   bool
	panics bool
	dep    *echoSpec
}

func (echoSpec) JobKind() string    { return "test/echo" }
func (s echoSpec) CacheKey() string { return s.id }

// echoSim counts how many jobs it actually computed.
type echoSim struct {
	computed atomic.Uint64
}

func (*echoSim) JobKind() string { return "test/echo" }

func (s *echoSim) Simulate(ctx context.Context, eng *Engine, spec Spec) (any, error) {
	job := spec.(echoSpec)
	s.computed.Add(1)
	if job.panics {
		panic("boom")
	}
	if job.fail {
		return nil, fmt.Errorf("job %s failed", job.id)
	}
	if job.dep != nil {
		dep, err := Resolve[string](ctx, eng, *job.dep)
		if err != nil {
			return nil, err
		}
		return dep + "+" + job.id, nil
	}
	return job.id, nil
}

func newTestEngine(workers int) (*Engine, *echoSim) {
	e := New(workers)
	sim := &echoSim{}
	e.Register(sim)
	return e, sim
}

func TestDoMemoizes(t *testing.T) {
	e, sim := newTestEngine(4)
	for i := 0; i < 5; i++ {
		v, err := Resolve[string](context.Background(), e, echoSpec{id: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if v != "a" {
			t.Fatalf("got %q", v)
		}
	}
	if n := sim.computed.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	if e.Executed() != 1 || e.Hits() != 4 {
		t.Errorf("executed=%d hits=%d, want 1/4", e.Executed(), e.Hits())
	}
	if e.CacheLen() != 1 {
		t.Errorf("cache len = %d, want 1", e.CacheLen())
	}
}

func TestDoDeduplicatesConcurrentCallers(t *testing.T) {
	e, sim := newTestEngine(8)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Do(context.Background(), echoSpec{id: "shared"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := sim.computed.Load(); n != 1 {
		t.Errorf("computed %d times under concurrency, want 1", n)
	}
}

func TestErrorsAreMemoized(t *testing.T) {
	e, sim := newTestEngine(2)
	for i := 0; i < 3; i++ {
		if _, err := e.Do(context.Background(), echoSpec{id: "bad", fail: true}); err == nil {
			t.Fatal("want error")
		}
	}
	if n := sim.computed.Load(); n != 1 {
		t.Errorf("failing job computed %d times, want 1", n)
	}
}

func TestPanicBecomesError(t *testing.T) {
	e, _ := newTestEngine(2)
	_, err := e.Do(context.Background(), echoSpec{id: "p", panics: true})
	if err == nil {
		t.Fatal("want error from panicking job")
	}
	// The memoized error must be shared, and must not wedge later callers.
	if _, err2 := e.Do(context.Background(), echoSpec{id: "p", panics: true}); err2 == nil {
		t.Fatal("memoized panic error missing")
	}
}

func TestNestedDependencyResolution(t *testing.T) {
	e, sim := newTestEngine(4)
	dep := echoSpec{id: "base"}
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = echoSpec{id: fmt.Sprintf("top%d", i), dep: &dep}
	}
	results, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := fmt.Sprintf("base+top%d", i)
		if r.(string) != want {
			t.Errorf("results[%d] = %v, want %s", i, r, want)
		}
	}
	// 16 top jobs + 1 shared dependency.
	if n := sim.computed.Load(); n != 17 {
		t.Errorf("computed %d jobs, want 17", n)
	}
}

func TestRunOrderingIsPositional(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		e, _ := newTestEngine(workers)
		specs := make([]Spec, 100)
		for i := range specs {
			specs[i] = echoSpec{id: fmt.Sprintf("j%03d", i)}
		}
		results, err := e.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if want := fmt.Sprintf("j%03d", i); r.(string) != want {
				t.Fatalf("workers=%d: results[%d] = %v, want %s", workers, i, r, want)
			}
		}
	}
}

func TestRunReturnsFirstErrorByIndex(t *testing.T) {
	e, _ := newTestEngine(4)
	specs := []Spec{
		echoSpec{id: "ok0"},
		echoSpec{id: "bad1", fail: true},
		echoSpec{id: "ok2"},
		echoSpec{id: "bad3", fail: true},
	}
	var firstErr error
	for i := 0; i < 5; i++ {
		_, err := e.Run(context.Background(), specs)
		if err == nil {
			t.Fatal("want error")
		}
		if firstErr == nil {
			firstErr = err
		} else if err.Error() != firstErr.Error() {
			t.Fatalf("error not deterministic: %v vs %v", err, firstErr)
		}
	}
	if want := "job bad1 failed"; firstErr.Error() != want {
		t.Errorf("error = %v, want %q (smallest failing index)", firstErr, want)
	}
}

func TestUnknownKindErrors(t *testing.T) {
	e := New(1)
	if _, err := e.Do(context.Background(), echoSpec{id: "x"}); err == nil {
		t.Fatal("unregistered kind must error")
	}
}

func TestResolveTypeMismatch(t *testing.T) {
	e, _ := newTestEngine(1)
	if _, err := Resolve[int](context.Background(), e, echoSpec{id: "a"}); err == nil {
		t.Fatal("type mismatch must error")
	}
	if _, err := Resolve[string](context.Background(), e, echoSpec{id: "gone", fail: true}); err == nil {
		t.Fatal("want propagated job error")
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Error("default worker count must be at least 1")
	}
	if New(-3).Workers() < 1 {
		t.Error("negative worker count must normalize")
	}
	if New(7).Workers() != 7 {
		t.Error("explicit worker count must stick")
	}
}

func TestBatchDeduplicatesAndOrders(t *testing.T) {
	e, sim := newTestEngine(4)
	b := e.NewBatch()
	r1 := b.Add(echoSpec{id: "x"})
	r2 := b.Add(echoSpec{id: "y"})
	r3 := b.Add(echoSpec{id: "x"}) // duplicate: Do computes it once
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if Get[string](b, r1) != "x" || Get[string](b, r2) != "y" || Get[string](b, r3) != "x" {
		t.Errorf("batch results wrong: %v %v %v", b.results[r1], b.results[r2], b.results[r3])
	}
	if n := sim.computed.Load(); n != 2 {
		t.Errorf("computed %d, want 2", n)
	}
}
