package sim

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// storeTestReqs is a small grid over a synthetic workload: the cold run
// persists both kinds a session computes (multiscalar/preprocess,
// multiscalar/simulate) and rebuilds the memory-only synth/build, and two
// policies share one workload so the in-memory tier still does its own
// deduplication on top of the disk tier.
func storeTestReqs() []Request {
	spec := &SynthSpec{Seed: 1, Ops: 2048}
	return []Request{
		{Synth: spec, Stages: 4, Policy: PolicyAlways},
		{Synth: spec, Stages: 4, Policy: PolicyESync},
	}
}

// TestStoreWarmRunRecomputesNothing is the end-to-end contract of the
// persistent store: a second session pointed at the same directory
// recomputes nothing persistable -- the simulation results come from disk
// without their work item even being looked up, and every job it executes
// is a bypassed (memory-only) kind, here the synth/build rebuild that
// annotates the results -- and its results are deeply equal to the cold
// run's.
func TestStoreWarmRunRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reqs := storeTestReqs()

	cold := NewSession(WithStore(dir))
	coldResults, err := cold.RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Stats()
	if coldStats.Executed == 0 {
		t.Fatal("cold run executed nothing")
	}
	if coldStats.Store == nil {
		t.Fatal("cold run has no store stats")
	}
	if w := coldStats.Store.Counters.Writes; w == 0 {
		t.Fatalf("cold run persisted nothing: %+v", coldStats.Store.Counters)
	}
	if coldStats.Store.Counters.Hits != 0 {
		t.Fatalf("cold run hit the empty store: %+v", coldStats.Store.Counters)
	}

	warm := NewSession(WithStore(dir))
	warmResults, err := warm.RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	warmStats := warm.Stats()
	checkWarm(t, warmStats)
	if kc := warmStats.Store.Kinds["multiscalar/simulate"]; kc.Hits != uint64(len(reqs)) {
		t.Errorf("multiscalar/simulate: %+v, want a disk hit per request", kc)
	}
	if kc := warmStats.Store.Kinds["multiscalar/preprocess"]; kc != (StoreCounters{}) {
		t.Errorf("multiscalar/preprocess: %+v, want no lookup: a stored result needs no work item", kc)
	}

	// Warm results are indistinguishable from cold ones.
	if !reflect.DeepEqual(warmResults, coldResults) {
		t.Fatal("warm results differ from cold results")
	}
}

// TestStoreWarmNewConfigReadsWorkItem pins the work item's one remaining
// reader: a warm session asked for a configuration no earlier session ran
// simulates it over the persisted work item -- one disk hit, no miss, so no
// preprocess executes -- and the only other job it executes is the
// memory-only synth/build rebuild that annotates the result.
func TestStoreWarmNewConfigReadsWorkItem(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	if _, err := NewSession(WithStore(dir)).RunGrid(ctx, storeTestReqs()); err != nil {
		t.Fatal(err)
	}

	req := storeTestReqs()[0]
	req.Stages = 8
	warm := NewSession(WithStore(dir))
	if _, err := warm.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if kc := st.Store.Kinds["multiscalar/preprocess"]; kc != (StoreCounters{Hits: 1}) {
		t.Errorf("multiscalar/preprocess: %+v, want one disk hit and nothing else", kc)
	}
	if kc := st.Store.Kinds["multiscalar/simulate"]; kc.Misses != 1 || kc.Writes != 1 {
		t.Errorf("multiscalar/simulate: %+v, want the new configuration missed and written", kc)
	}
	if st.Executed != 2 {
		t.Errorf("warm session executed %d jobs, want the new simulation and the synth/build rebuild", st.Executed)
	}
}

// TestStoreSurvivesCorruptObjects damages every object on disk; a third run
// must degrade to recomputation (correct results, corrupt counters bumped)
// and repair the store for the run after it.
func TestStoreSurvivesCorruptObjects(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reqs := storeTestReqs()

	cold := NewSession(WithStore(dir))
	want, err := cold.RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate every object to garbage.
	damaged := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		damaged++
		return os.WriteFile(path, []byte("MDSO"), 0o644)
	})
	if err != nil || damaged == 0 {
		t.Fatalf("damaged %d objects, err %v", damaged, err)
	}

	hurt := NewSession(WithStore(dir))
	got, err := hurt.RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after corruption differ")
	}
	st := hurt.Stats()
	if st.Store.Counters.Corrupt == 0 {
		t.Fatalf("corrupt objects not counted: %+v", st.Store.Counters)
	}
	if st.Executed == 0 {
		t.Fatal("corrupted store cannot serve hits, jobs must recompute")
	}

	// The recomputation rewrote the objects: the next session is warm again.
	healed := NewSession(WithStore(dir))
	if _, err := healed.RunGrid(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	checkWarm(t, healed.Stats())
}

// checkWarm asserts what CI's warm replay asserts of a session over a
// populated store: every disk lookup hit, and every job the engine executed
// was a bypassed (memory-only) kind.  Over storeTestReqs that is exactly
// the synth/build rebuild, so no multiscalar job ran.
func checkWarm(t *testing.T, st Stats) {
	t.Helper()
	sc := st.Store.Counters
	if sc.Hits == 0 || sc.Misses != 0 || sc.Corrupt != 0 {
		t.Fatalf("warm counters = %+v, want all-hit", sc)
	}
	if st.Executed != sc.Bypassed {
		t.Fatalf("warm run executed %d jobs, %d of them bypassed kinds: a persisted kind was recomputed", st.Executed, sc.Bypassed)
	}
	if kc := st.Store.Kinds["synth/build"]; st.Executed == 0 || kc.Bypassed != st.Executed {
		t.Fatalf("warm run executed %d jobs, want only the synth/build rebuild (%+v)", st.Executed, kc)
	}
}

// TestStoreDisabledByDefault pins the opt-in: without WithStore, Stats
// reports no store and nothing lands on disk.
func TestStoreDisabledByDefault(t *testing.T) {
	s := NewSession()
	if _, err := s.Run(context.Background(), storeTestReqs()[0]); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Store != nil {
		t.Fatal("store stats present without WithStore")
	}
}

// TestStoreSharedAcrossSessionsConcurrently runs two sessions against the
// same directory at once (the cross-process race, in-process); run under
// -race in CI.
func TestStoreSharedAcrossSessionsConcurrently(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reqs := storeTestReqs()

	done := make(chan []*Result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			s := NewSession(WithStore(dir))
			res, err := s.RunGrid(ctx, reqs)
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- res
		}()
	}
	a, b := <-done, <-done
	if a == nil || b == nil {
		t.Fatal("a racing session failed")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("racing sessions disagree on results")
	}
}
