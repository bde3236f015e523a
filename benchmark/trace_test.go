package main

import (
	"context"
	"testing"
	"time"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
)

func ms2d(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func sp(layer string, start, end float64, parent int) span {
	return span{layer: layer, start: ms2d(start), end: ms2d(end), parent: parent}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		sp("multiscalar.simulate", 0, 100, -1),
		sp("multiscalar.preprocess", 10, 40, 0),
		sp("synth.build", 20, 30, 1),
		sp("store.save", 50, 55, 0),
	}
	want := []float64{100 - 30 - 5, 30 - 10, 10, 5}
	for i, got := range selfTimes(spans) {
		if got != ms2d(want[i]) {
			t.Errorf("span %d (%s) self = %v, want %vms", i, spans[i].layer, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		sp("multiscalar.simulate", 0, 100, -1),
		sp("multiscalar.preprocess", 10, 50, 0),
		sp("multiscalar.preprocess", 30, 70, 0),  // in parallel with the one before
		sp("multiscalar.preprocess", 90, 120, 0), // runs past its parent: clipped
		// A root running in parallel on another worker: it overlaps span 0
		// in time but is not its child, so it takes nothing from it.
		sp("multiscalar.simulate", 0, 100, -1),
	}
	self := selfTimes(spans)
	if want := ms2d(100 - 60 - 10); self[0] != want {
		t.Errorf("parent self = %v, want %v (children cover 10-70 and 90-100)", self[0], want)
	}
	if want := ms2d(100); self[4] != want {
		t.Errorf("parallel root self = %v, want %v", self[4], want)
	}
	ts := totals(spans)
	if got := ts["multiscalar.preprocess"]; got.calls != 3 || got.self != ms2d(40+40+30) {
		t.Errorf("preprocess totals = %+v, want 3 calls, 110ms", got)
	}
}

// fakeSpec and fakeSim are a two-level job graph under the store's kinds: a
// simulate job resolves a preprocess job through the engine.
type fakeSpec struct{ kind, key string }

func (s fakeSpec) JobKind() string  { return s.kind }
func (s fakeSpec) CacheKey() string { return s.key }

type fakeSim struct{ kind string }

func (f fakeSim) JobKind() string { return f.kind }

func (f fakeSim) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	time.Sleep(time.Millisecond)
	if f.kind == multiscalar.SimulateKind {
		return eng.Do(ctx, fakeSpec{multiscalar.PreprocessKind, "item"})
	}
	return 1, nil
}

// fakeTier misses every load.
type fakeTier struct{}

func (fakeTier) Load(string, string) (any, bool) { return nil, false }
func (fakeTier) Save(string, string, any)        {}

func TestDecoratorsNestThroughContextAndStoreCallsFollowTheirJob(t *testing.T) {
	tr := newTracer()
	eng := engine.New(2)
	eng.Register(tracedSim{inner: fakeSim{multiscalar.SimulateKind}, t: tr}, tracedSim{inner: fakeSim{multiscalar.PreprocessKind}, t: tr})
	eng.SetTier(tracedTier{inner: fakeTier{}, t: tr})
	top := []engine.Spec{fakeSpec{multiscalar.SimulateKind, "a"}, fakeSpec{multiscalar.SimulateKind, "b"}}
	if _, err := eng.Run(context.Background(), top); err != nil {
		t.Fatal(err)
	}
	spans := tr.take()
	byLayer := map[string][]span{}
	for _, s := range spans {
		byLayer[s.layer] = append(byLayer[s.layer], s)
	}
	if len(byLayer["multiscalar.simulate"]) != 2 || len(byLayer["multiscalar.preprocess"]) != 1 {
		t.Fatalf("spans by layer: %v", byLayer)
	}
	if len(byLayer["store.load"]) != 3 || len(byLayer["store.save"]) != 3 {
		t.Fatalf("want a load and a save per job, got %d and %d", len(byLayer["store.load"]), len(byLayer["store.save"]))
	}
	item := byLayer["multiscalar.preprocess"][0]
	if item.parent < 0 || spans[item.parent].layer != "multiscalar.simulate" {
		t.Errorf("preprocess span's parent = %d, want a simulate span", item.parent)
	}
	for _, s := range spans {
		if s.layer != "store.load" && s.layer != "store.save" {
			continue
		}
		want := -1 // a top-level job's store calls have no parent
		if s.key == multiscalar.PreprocessKind+"\x00item" {
			want = item.parent // the job that resolved it
		}
		if s.parent != want {
			t.Errorf("%s of %q has parent %d, want %d", s.layer, s.key, s.parent, want)
		}
	}
}
