package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countSpec is a job of the blocking, counting simulator.
type countSpec string

func (countSpec) JobKind() string    { return "test/count" }
func (s countSpec) CacheKey() string { return string(s) }

// countSim reports each job's start on started, blocks it until a token
// arrives on release, and records the most jobs it saw executing at once.
type countSim struct {
	started chan string
	release chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

func (*countSim) JobKind() string { return "test/count" }

func (s *countSim) Simulate(ctx context.Context, _ *Engine, spec Spec) (any, error) {
	n := s.running.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	s.started <- spec.CacheKey()
	<-s.release
	s.running.Add(-1)
	return spec.CacheKey(), nil
}

func newCountEngine(workers int) (*Engine, *countSim) {
	e := New(workers)
	sim := &countSim{started: make(chan string), release: make(chan struct{})}
	e.Register(sim, &echoSim{})
	return e, sim
}

// countSpecs returns n distinct specs named after prefix.
func countSpecs(prefix string, n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = countSpec(fmt.Sprintf("%s%d", prefix, i))
	}
	return specs
}

// TestConcurrentRunsShareOnePool runs two job sets at once on a two-slot
// engine: between them they never execute more than two jobs, and each
// still gets its results positionally.
func TestConcurrentRunsShareOnePool(t *testing.T) {
	const workers, perRun = 2, 5
	e, sim := newCountEngine(workers)
	var wg sync.WaitGroup
	for _, prefix := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := countSpecs(prefix, perRun)
			results, err := e.Run(context.Background(), specs)
			if err != nil {
				t.Errorf("run %s: %v", prefix, err)
				return
			}
			for i, r := range results {
				if r != specs[i].CacheKey() {
					t.Errorf("run %s: results[%d] = %v, want %s", prefix, i, r, specs[i].CacheKey())
				}
			}
		}()
	}
	// Let the pool fill.  While its jobs are held, no other job may start;
	// then retire one job per start that follows: each release frees the
	// one slot the next start needs.
	for range workers {
		<-sim.started
	}
	select {
	case k := <-sim.started:
		t.Fatalf("job %s started while %d jobs held every slot", k, workers)
	case <-time.After(20 * time.Millisecond):
	}
	for range 2*perRun - workers {
		sim.release <- struct{}{}
		<-sim.started
	}
	for range workers {
		sim.release <- struct{}{}
	}
	wg.Wait()
	if p := sim.peak.Load(); p > workers {
		t.Errorf("%d jobs executed at once, want at most %d", p, workers)
	}
}

// TestSlotWaitHonoursContext checks that a job set waiting for a slot gives
// up when its context is cancelled, having executed nothing, and that a
// one-spec Run takes no slot: it completes while every slot is held.
func TestSlotWaitHonoursContext(t *testing.T) {
	e, sim := newCountEngine(1)
	holder := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), countSpecs("held", 2))
		holder <- err
	}()
	<-sim.started // the only slot is held

	if v, err := e.Run(context.Background(), []Spec{echoSpec{id: "lone"}}); err != nil || v[0] != "lone" {
		t.Fatalf("one-spec Run beside a full pool = %v, %v", v, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, countSpecs("waiting", 2))
		waiter <- err
	}()
	// Give the waiter time to block on the pool, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiting Run error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not give up its wait for a slot")
	}

	// The holder's jobs finish; the waiter's never started.
	go func() {
		for range 2 {
			sim.release <- struct{}{}
		}
	}()
	<-sim.started
	if err := <-holder; err != nil {
		t.Fatalf("holding Run failed: %v", err)
	}
	if e.Executed() != 3 { // the holder's two jobs and the lone echo
		t.Errorf("executed %d jobs, want 3: the cancelled waiter ran some", e.Executed())
	}
}
