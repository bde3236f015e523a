package memdep

import (
	"testing"
	"testing/quick"
)

func newTestSystem(pred PredictorKind) *System {
	return NewSystem(Config{Entries: 16, SyncSlots: 4, Predictor: pred})
}

// releaseLog collects the loads a System's release hook delivers.
type releaseLog []int64

// hookReleases installs a release hook on s that appends to the returned log.
func hookReleases(s *System) *releaseLog {
	l := new(releaseLog)
	s.SetReleaseHook(func(ldid int64) { *l = append(*l, ldid) })
	return l
}

// take returns the loads released since the last take and empties the log.
func (l *releaseLog) take() []int64 {
	got := []int64(*l)
	*l = nil
	return got
}

func TestSystemColdLoadDoesNotWait(t *testing.T) {
	s := newTestSystem(PredictSync)
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 5, LDID: 1})
	if d.Predicted || d.Wait {
		t.Errorf("cold load must not be predicted dependent: %+v", d)
	}
}

func TestSystemLearnsAfterMisspeculation(t *testing.T) {
	s := newTestSystem(PredictSync)
	rel := hookReleases(s)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}

	// A mis-speculation at distance 1 teaches the pair.
	s.RecordMisspeculation(pair, 1, 0x1000)

	// The next dynamic instance of the load is predicted dependent and waits.
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
	if !d.Predicted || !d.Wait {
		t.Fatalf("load must be predicted and wait: %+v", d)
	}
	if len(d.WaitPairs) != 1 || d.WaitPairs[0] != pair {
		t.Errorf("wait pairs = %v", d.WaitPairs)
	}

	// The matching store (instance 6 = 7 - dist) signals and releases it.
	if !s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 21, TaskPC: 0x1000}) {
		t.Fatal("store must match the prediction entry")
	}
	if got := rel.take(); len(got) != 1 || got[0] != 11 {
		t.Fatalf("released loads = %v, want [11]", got)
	}
}

func TestSystemReleaseHook(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0x1000)

	var released []int64
	s.SetReleaseHook(func(ldid int64) { released = append(released, ldid) })

	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
	if !d.Wait {
		t.Fatalf("load must wait: %+v", d)
	}
	if len(released) != 0 {
		t.Fatalf("hook fired before any store: %v", released)
	}
	if !s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 21, TaskPC: 0x1000}) {
		t.Fatal("store must match the prediction entry")
	}
	if len(released) != 1 || released[0] != 11 {
		t.Errorf("hook releases = %v, want [11]", released)
	}
	if s.Stats().LoadsReleasedByStore != 1 {
		t.Errorf("LoadsReleasedByStore = %d, want 1", s.Stats().LoadsReleasedByStore)
	}

	// Without a hook, releases still happen but are only counted.
	s.SetReleaseHook(nil)
	s.LoadIssue(LoadQuery{PC: 0x100, Instance: 9, LDID: 13})
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 8, STID: 23, TaskPC: 0x1000})
	if len(released) != 1 {
		t.Errorf("hook fired after removal: %v", released)
	}
	if s.MDST().HasWaiter(13) || s.Stats().LoadsReleasedByStore != 2 {
		t.Errorf("load 13 not released without a hook: waiting=%v, stats %+v", s.MDST().HasWaiter(13), s.Stats())
	}
}

func TestSystemStoreFirstLoadDoesNotWait(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)
	rel := hookReleases(s)

	// Store issues first (instance 6 targets load instance 7).
	if matched := s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 21}); !matched || len(*rel) != 0 {
		t.Fatalf("store matched=%v released %v, want a match and no release", matched, *rel)
	}
	// The load then issues and finds the condition variable full.
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
	if !d.Predicted {
		t.Error("load must still be predicted dependent")
	}
	if d.Wait {
		t.Error("load must not wait when the store has already signalled")
	}
	if len(d.ReadyPairs) != 1 {
		t.Errorf("ready pairs = %v", d.ReadyPairs)
	}
}

func TestSystemWrongInstanceDoesNotRelease(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)

	rel := hookReleases(s)
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
	if !d.Wait {
		t.Fatal("load must wait")
	}
	// A store of a different instance (distance mismatch) signals instance 9.
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 8, STID: 21})
	if got := rel.take(); len(got) != 0 {
		t.Errorf("released loads = %v, want none", got)
	}
	if !s.MDST().HasWaiter(11) {
		t.Error("load 11 must still be waiting")
	}
}

func TestSystemReleaseLoadWeakensPrediction(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)

	before, _ := s.MDPT().Lookup(pair)
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
	if !d.Wait {
		t.Fatal("load must wait")
	}
	// All prior stores resolve without a signal: the load is released and the
	// prediction weakened.
	if n := s.ReleaseLoad(11); n != 1 {
		t.Fatalf("released %d entries, want 1", n)
	}
	after, _ := s.MDPT().Lookup(pair)
	if after.Counter >= before.Counter {
		t.Errorf("counter %d -> %d, want weakened", before.Counter, after.Counter)
	}
	if s.MDST().HasWaiter(11) {
		t.Error("entry must be freed")
	}
}

func TestSystemSquashDoesNotTouchPredictor(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)
	before, _ := s.MDPT().Lookup(pair)

	s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
	if n := s.SquashLoad(11); n != 1 {
		t.Fatalf("squash freed %d entries, want 1", n)
	}
	after, _ := s.MDPT().Lookup(pair)
	if after.Counter != before.Counter {
		t.Error("squash must not update the predictor (updates are non-speculative)")
	}
}

func TestSystemSquashStore(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 21})
	if s.MDST().Len() != 1 {
		t.Fatal("store must have pre-set a condition variable")
	}
	if n := s.SquashStore(21); n != 1 {
		t.Fatalf("squash freed %d entries, want 1", n)
	}
}

func TestSystemCounterLearnsToStopPredicting(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)

	// The dependence stops occurring: commits keep weakening the entry.
	for i := 0; i < 6; i++ {
		d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: uint64(10 + i), LDID: int64(100 + i)})
		if d.Predicted {
			s.ReleaseLoad(int64(100 + i))
			s.CommitLoad(0x100, 0, d.WaitPairs)
		}
	}
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 50, LDID: 999})
	if d.Predicted {
		t.Error("after repeated false predictions the counter must drop below threshold")
	}
}

func TestSystemCommitLoadStrengthensConfirmedDependence(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)
	before, _ := s.MDPT().Lookup(pair)
	s.CommitLoad(0x100, 0x80, []PairKey{pair})
	after, _ := s.MDPT().Lookup(pair)
	if after.Counter <= before.Counter {
		t.Errorf("counter %d -> %d, want strengthened", before.Counter, after.Counter)
	}
	// A commit whose actual producer differs weakens it.
	s.CommitLoad(0x100, 0x9999, []PairKey{pair})
	final, _ := s.MDPT().Lookup(pair)
	if final.Counter >= after.Counter {
		t.Error("mismatched producer must weaken the entry")
	}
}

func TestSystemESyncFiltersOnTaskPC(t *testing.T) {
	s := newTestSystem(PredictESync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	// The dependence was learned with the producing task at PC 0xAAAA.
	s.RecordMisspeculation(pair, 1, 0xAAAA)

	// Case 1: the task at distance 1 is a different task; ESYNC suppresses
	// the synchronization and the load does not wait.
	d := s.LoadIssue(LoadQuery{
		PC: 0x100, Instance: 7, LDID: 1,
		TaskPCAt: func(inst uint64) (uint64, bool) {
			if inst == 6 {
				return 0xBBBB, true
			}
			return 0, false
		},
	})
	if d.Wait {
		t.Error("ESYNC must suppress synchronization when the producing task differs")
	}
	if s.Stats().ESyncFiltered == 0 {
		t.Error("filter counter must increase")
	}

	// Case 2: the task at distance 1 matches; the load waits.
	d = s.LoadIssue(LoadQuery{
		PC: 0x100, Instance: 9, LDID: 2,
		TaskPCAt: func(inst uint64) (uint64, bool) {
			if inst == 8 {
				return 0xAAAA, true
			}
			return 0, false
		},
	})
	if !d.Wait {
		t.Error("ESYNC must enforce synchronization when the producing task matches")
	}

	// Case 3: unknown task PC falls back to enforcing the synchronization.
	d = s.LoadIssue(LoadQuery{PC: 0x100, Instance: 11, LDID: 3})
	if !d.Wait {
		t.Error("unknown task PC must conservatively synchronize")
	}
}

func TestSystemSyncPredictorIgnoresTaskPC(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0xAAAA)
	d := s.LoadIssue(LoadQuery{
		PC: 0x100, Instance: 7, LDID: 1,
		TaskPCAt: func(uint64) (uint64, bool) { return 0xBBBB, true },
	})
	if !d.Wait {
		t.Error("SYNC predictor must not filter on task PC")
	}
}

func TestSystemMultipleDependencesLoadWaitsForAll(t *testing.T) {
	s := newTestSystem(PredictSync)
	a := PairKey{LoadPC: 0x100, StorePC: 0x80}
	b := PairKey{LoadPC: 0x100, StorePC: 0x84}
	s.RecordMisspeculation(a, 1, 0)
	s.RecordMisspeculation(b, 2, 0)

	rel := hookReleases(s)
	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 10, LDID: 5})
	if len(d.WaitPairs) != 2 {
		t.Fatalf("wait pairs = %v, want 2", d.WaitPairs)
	}
	// First store signals: the load must remain waiting (not reported
	// released) because its second dependence is outstanding.
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 9, STID: 1})
	if got := rel.take(); len(got) != 0 {
		t.Fatalf("load released too early: %v", got)
	}
	// Second store signals: now the load is released.
	s.StoreIssue(StoreQuery{PC: 0x84, Instance: 8, STID: 2})
	if got := rel.take(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("released = %v, want [5]", got)
	}
}

func TestSystemTagByAddressAblation(t *testing.T) {
	s := NewSystem(Config{Entries: 16, SyncSlots: 4, Predictor: PredictSync, TagByAddress: true})
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)
	rel := hookReleases(s)

	d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 1, Addr: 0xdead0})
	if !d.Wait {
		t.Fatal("load must wait")
	}
	// A store to a different address must not release it; same address must.
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 2, Addr: 0xbeef0})
	if len(rel.take()) != 0 {
		t.Error("store to unrelated address must not release the load")
	}
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 2, Addr: 0xdead0})
	if len(rel.take()) != 1 {
		t.Error("store to the same address must release the load")
	}
}

func TestSystemStatsAccumulate(t *testing.T) {
	s := newTestSystem(PredictSync)
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	s.RecordMisspeculation(pair, 1, 0)
	s.LoadIssue(LoadQuery{PC: 0x100, Instance: 3, LDID: 1})
	s.StoreIssue(StoreQuery{PC: 0x80, Instance: 2, STID: 2})
	st := s.Stats()
	if st.Misspeculations != 1 || st.LoadQueries != 1 || st.StoreQueries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LoadsMadeToWait != 1 || st.LoadsReleasedByStore != 1 {
		t.Errorf("stats = %+v", st)
	}
	s.Reset()
	if s.Stats() != (SystemStats{}) || s.MDPT().Len() != 0 || s.MDST().Len() != 0 {
		t.Error("reset must clear everything")
	}
}

// Property: for a single learned dependence, any interleaving of a store
// signal and a load issue with matching instances releases the load exactly
// once and leaves no waiter behind.
func TestSystemSynchronizationAlwaysResolves(t *testing.T) {
	f := func(storeFirst bool, instanceSmall uint8, dist8 uint8) bool {
		dist := uint64(dist8%4 + 1)
		loadInstance := uint64(instanceSmall) + dist // ensure >= dist
		s := newTestSystem(PredictSync)
		rel := hookReleases(s)
		pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
		s.RecordMisspeculation(pair, dist, 0)

		released := false
		if storeFirst {
			s.StoreIssue(StoreQuery{PC: 0x80, Instance: loadInstance - dist, STID: 1})
			d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: loadInstance, LDID: 9})
			released = !d.Wait
		} else {
			d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: loadInstance, LDID: 9})
			if !d.Wait {
				return false
			}
			s.StoreIssue(StoreQuery{PC: 0x80, Instance: loadInstance - dist, STID: 1})
			got := rel.take()
			released = len(got) == 1 && got[0] == 9
		}
		return released && !s.MDST().HasWaiter(9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
