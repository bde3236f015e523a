package memdep

import (
	"testing"
	"testing/quick"
)

func TestMDSTWaitThenSignal(t *testing.T) {
	m := NewMDST(8, testIDs)
	pair := PairKey{LoadPC: 0x40, StorePC: 0x20}

	// Load arrives first: it must wait (figure 4, parts (c)/(d)).
	if !m.AllocWaiting(pair, 3, 77) {
		t.Fatal("load arriving before the store must wait")
	}
	if !m.HasWaiter(77) {
		t.Fatal("load 77 must be waiting")
	}
	// Store signals the instance: the waiting load is released, the entry
	// freed.
	ldid, released := m.Signal(pair, 3, 5)
	if !released || ldid != 77 {
		t.Fatalf("signal returned (%d,%v), want (77,true)", ldid, released)
	}
	if liveSync(m) != 0 {
		t.Errorf("entry must be freed after synchronization, len = %d", liveSync(m))
	}
}

func TestMDSTSignalThenWait(t *testing.T) {
	m := NewMDST(8, testIDs)
	pair := PairKey{LoadPC: 0x40, StorePC: 0x20}

	// Store arrives first: it pre-sets the condition variable (figure 4,
	// parts (e)/(f)).
	ldid, released := m.Signal(pair, 3, 5)
	if released || ldid != invalidID {
		t.Fatal("signal with no waiter must not release a load")
	}
	if liveSync(m) != 1 {
		t.Fatalf("len = %d, want 1 (full entry allocated)", liveSync(m))
	}
	// Load arrives later: it must not wait, and the entry is consumed.
	if m.AllocWaiting(pair, 3, 77) {
		t.Fatal("load arriving after the signal must not wait")
	}
	if liveSync(m) != 0 {
		t.Errorf("entry must be consumed, len = %d", liveSync(m))
	}
}

func TestMDSTInstanceDistinguishesDynamicDependences(t *testing.T) {
	m := NewMDST(8, testIDs)
	pair := PairKey{LoadPC: 0x40, StorePC: 0x20}
	if !m.AllocWaiting(pair, 3, 30) {
		t.Fatal("load instance 3 must wait")
	}
	if !m.AllocWaiting(pair, 4, 40) {
		t.Fatal("load instance 4 must wait independently")
	}
	// Signalling instance 4 must not release instance 3.
	ldid, released := m.Signal(pair, 4, 1)
	if !released || ldid != 40 {
		t.Fatalf("expected release of load 40, got (%d,%v)", ldid, released)
	}
	if !m.HasWaiter(30) || m.HasWaiter(40) {
		t.Fatalf("waiters: 30 = %v, 40 = %v, want only 30", m.HasWaiter(30), m.HasWaiter(40))
	}
}

func TestMDSTSignalWrongInstanceDoesNotRelease(t *testing.T) {
	m := NewMDST(8, testIDs)
	pair := PairKey{LoadPC: 1, StorePC: 2}
	m.AllocWaiting(pair, 10, 99)
	if _, released := m.Signal(pair, 11, 0); released {
		t.Fatal("signal for a different instance must not release")
	}
	if !m.HasWaiter(99) {
		t.Error("load 99 must still be waiting")
	}
}

func TestMDSTReleaseLoadFreesAllEntries(t *testing.T) {
	m := NewMDST(8, testIDs)
	a := PairKey{LoadPC: 1, StorePC: 2}
	b := PairKey{LoadPC: 1, StorePC: 6}
	m.AllocWaiting(a, 5, 42)
	m.AllocWaiting(b, 5, 42)
	if !m.HasWaiter(42) {
		t.Fatal("load 42 must be waiting")
	}
	freed := m.ReleaseLoad(42)
	if len(freed) != 2 {
		t.Fatalf("freed %d entries, want 2", len(freed))
	}
	if m.HasWaiter(42) || liveSync(m) != 0 {
		t.Error("release must free all entries of the load")
	}
}

func TestMDSTReleaseStoreOnlyFreesUnmatchedEntries(t *testing.T) {
	m := NewMDST(8, testIDs)
	pair := PairKey{LoadPC: 1, StorePC: 2}
	// Full entry pre-set by store 9, never consumed.
	m.Signal(pair, 3, 9)
	// Waiting entry belonging to a load (different instance).
	m.AllocWaiting(pair, 4, 55)
	freed := m.ReleaseStore(9)
	if len(freed) != 1 {
		t.Fatalf("freed %d entries, want 1", len(freed))
	}
	if !m.HasWaiter(55) {
		t.Error("the waiting load's entry must survive a store squash")
	}
}

func TestMDSTVictimPrefersFullEntries(t *testing.T) {
	m := NewMDST(2, testIDs)
	// Fill the table with one full (pre-signalled) and one waiting entry.
	m.Signal(PairKey{LoadPC: 1, StorePC: 2}, 1, 9)       // full
	m.AllocWaiting(PairKey{LoadPC: 3, StorePC: 4}, 1, 7) // waiting
	// A new allocation must evict the full entry, not the waiter.
	m.AllocWaiting(PairKey{LoadPC: 5, StorePC: 6}, 1, 8)
	if !m.HasWaiter(7) {
		t.Error("waiting entry must not be evicted while a full entry exists")
	}
	if !m.HasWaiter(8) {
		t.Error("new waiter must be allocated")
	}
}

func TestMDSTHasWaiterMultipleDependences(t *testing.T) {
	m := NewMDST(8, testIDs)
	a := PairKey{LoadPC: 1, StorePC: 2}
	b := PairKey{LoadPC: 1, StorePC: 6}
	m.AllocWaiting(a, 5, 42)
	m.AllocWaiting(b, 5, 42)
	// One signal releases entry a, but the load still waits on b.
	ldid, released := m.Signal(a, 5, 0)
	if !released || ldid != 42 {
		t.Fatalf("signal = (%d,%v)", ldid, released)
	}
	if !m.HasWaiter(42) {
		t.Error("load 42 must still wait on its second dependence")
	}
	if _, released := m.Signal(b, 5, 0); !released {
		t.Error("second signal must release the remaining entry")
	}
	if m.HasWaiter(42) {
		t.Error("load 42 must not wait any more")
	}
}

func TestMDSTCapacityClamp(t *testing.T) {
	if len(NewMDST(0, testIDs).entries) != 1 {
		t.Error("capacity must clamp to at least 1")
	}
}

func TestMDSTStatsAndReset(t *testing.T) {
	m := NewMDST(4, testIDs)
	pair := PairKey{LoadPC: 1, StorePC: 2}
	m.AllocWaiting(pair, 1, 1)
	m.AllocWaiting(pair, 2, 3)
	m.Signal(pair, 1, 2)
	if liveSync(m) != 1 || m.HasWaiter(1) || !m.HasWaiter(3) {
		t.Errorf("len = %d, waiters: 1 = %v, 3 = %v; want 1, false, true", liveSync(m), m.HasWaiter(1), m.HasWaiter(3))
	}
	m.Reset(testIDs)
	if liveSync(m) != 0 || m.HasWaiter(3) {
		t.Error("reset must clear entries and waiters")
	}
}

// Property: wait-then-signal and signal-then-wait both result in exactly one
// release of the load and an empty table, regardless of order.
func TestMDSTSynchronizationOrderIndependent(t *testing.T) {
	f := func(storeFirst bool, instance uint64, ldid uint16) bool {
		ldid %= testIDs
		m := NewMDST(4, testIDs)
		pair := PairKey{LoadPC: 0x10, StorePC: 0x20}
		if storeFirst {
			if _, released := m.Signal(pair, instance, 1); released {
				return false
			}
			if m.AllocWaiting(pair, instance, int64(ldid)) {
				return false // must not wait
			}
		} else {
			if !m.AllocWaiting(pair, instance, int64(ldid)) {
				return false // must wait
			}
			got, released := m.Signal(pair, instance, 1)
			if !released || got != int64(ldid) {
				return false
			}
		}
		return liveSync(m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the table never exceeds its capacity and never holds two live
// waiting entries for the same (pair, instance).
func TestMDSTNoDuplicateLiveEntries(t *testing.T) {
	type op struct {
		Store    bool
		Pair     uint8
		Instance uint8
		ID       uint8
	}
	f := func(ops []op) bool {
		m := NewMDST(8, testIDs)
		for _, o := range ops {
			pair := PairKey{LoadPC: uint64(o.Pair % 4), StorePC: uint64(o.Pair%4) + 100}
			if o.Store {
				m.Signal(pair, uint64(o.Instance%4), int64(o.ID))
			} else {
				m.AllocWaiting(pair, uint64(o.Instance%4), int64(o.ID))
			}
			if liveSync(m) > len(m.entries) {
				return false
			}
			// Check for duplicate live entries per (pair, instance).
			seen := map[[3]uint64]int{}
			for i := range m.entries {
				e := &m.entries[i]
				if e.valid {
					key := [3]uint64{e.loadPC, e.storePC, e.instance}
					seen[key]++
					if seen[key] > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMDSTIndexConsistency drives a small table through a randomized mix of
// operations, including resets that change the identifier range and the
// size, and after every step rebuilds the hash buckets, the LRU lists, the
// identifier chains and the free stack from the entry array (the source of
// truth).  The incremental indexes must match exactly -- they carry no
// information of their own.
func TestMDSTIndexConsistency(t *testing.T) {
	m := NewMDST(8, 12)
	ids := uint64(12)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for step := 0; step < 4000; step++ {
		pair := PairKey{LoadPC: 0x100 + next(4)*8, StorePC: 0x200 + next(4)*8}
		instance := next(6)
		id := int64(next(ids))
		switch next(6) {
		case 0, 1:
			m.AllocWaiting(pair, instance, id)
		case 2:
			m.Signal(pair, instance, id)
		case 3:
			m.ReleaseLoad(id)
		case 4:
			m.ReleaseStore(id)
		case 5:
			if next(50) == 0 {
				ids = 1 + next(16)
				m.resize(1 + int(next(12)))
				m.Reset(int(ids))
			}
		}
		if err := checkMDSTIndexes(m); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	m.Reset(4)
	if err := checkMDSTIndexes(m); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

// testIDs is the identifier range the tests size tables for.
const testIDs = 1024

// liveSync counts the valid entries of a synchronization table.
func liveSync(m *MDST) int {
	n := 0
	for i := range m.entries {
		if m.entries[i].valid {
			n++
		}
	}
	return n
}
