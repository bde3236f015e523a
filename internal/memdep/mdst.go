package memdep

// mdstEntry is one entry of the memory dependence synchronization table
// (section 4.2): valid flag, load and store instruction addresses, load and
// store identifiers (assigned by the out-of-order core), the dynamic instance
// tag, and the full/empty flag that acts as the condition variable.
type mdstEntry struct {
	valid    bool
	loadPC   uint64
	storePC  uint64
	ldid     int64
	stid     int64
	instance uint64
	full     bool
	lastUse  uint64
}

// invalidID marks an identifier slot whose instruction has not been seen yet
// (for example the load identifier of an entry allocated by a store).
const invalidID int64 = -1

// mdstKey identifies one dynamic dependence instance -- the unit of MDST
// lookup.  At most one valid entry exists per key (allocation only happens
// after a failed find), which is what lets the index replace the former
// O(entries) scan without changing which entry a lookup returns.
type mdstKey struct {
	loadPC   uint64
	storePC  uint64
	instance uint64
}

// MDST is the memory dependence synchronization table: a dynamic pool of
// condition variables together with the mechanism to associate them with
// dynamic store→load instruction pairs.
//
// The table sits on the timing simulator's per-memory-operation hot path, so
// the dynamic-instance lookup and the per-load waiter test are backed by
// indexes (index, waiting) instead of scans over the entry array; both are
// maintained incrementally by every allocation, release and replacement and
// carry no information of their own -- the entry array remains the source of
// truth, which TestMDSTIndexConsistency asserts.
//
//memdep:resettable
type MDST struct {
	entries []mdstEntry
	clock   uint64

	// index maps each dynamic dependence instance to its entry slot.
	index map[mdstKey]int32
	// waiting counts, per load identifier, the valid empty entries the load
	// is blocked on (every empty entry carries a valid ldid, see
	// AllocWaiting); it answers HasWaiter in O(1) and lets ReleaseLoad skip
	// the scan entirely for loads that wait on nothing.
	waiting map[int64]int32

	// freedScratch backs the slices returned by ReleaseLoad/ReleaseStore;
	// the result is valid until the next call to either.
	freedScratch []PairKey //lint:reset-exempt scratch backing, overwritten before every read
}

// NewMDST creates a synchronization table with the given number of entries.
func NewMDST(capacity int) *MDST {
	if capacity < 1 {
		capacity = 1
	}
	return &MDST{
		entries: make([]mdstEntry, capacity),
		index:   make(map[mdstKey]int32, capacity),
		waiting: make(map[int64]int32),
	}
}

func (t *MDST) touch(e *mdstEntry) {
	t.clock++
	e.lastUse = t.clock
}

// find locates the entry for a specific dynamic dependence instance.
func (t *MDST) find(pair PairKey, instance uint64) *mdstEntry {
	if i, ok := t.index[mdstKey{pair.LoadPC, pair.StorePC, instance}]; ok {
		return &t.entries[i]
	}
	return nil
}

// addWaiter/dropWaiter maintain the per-ldid waiter counts for entries whose
// full/empty flag is empty.
func (t *MDST) addWaiter(ldid int64) { t.waiting[ldid]++ }

func (t *MDST) dropWaiter(ldid int64) {
	if n := t.waiting[ldid] - 1; n > 0 {
		t.waiting[ldid] = n
	} else {
		delete(t.waiting, ldid)
	}
}

// invalidate frees the entry, unhooking it from both indexes.
func (t *MDST) invalidate(e *mdstEntry) {
	delete(t.index, mdstKey{e.loadPC, e.storePC, e.instance})
	if !e.full && e.ldid != invalidID {
		t.dropWaiter(e.ldid)
	}
	e.valid = false
}

// victim returns the slot to allocate into: an invalid entry if any,
// otherwise the least recently used entry whose full/empty flag is full (a
// synchronization that has already fired and is only waiting for its load),
// otherwise the least recently used entry overall (section 4.4.2 discusses
// both reclamation policies).  A valid victim is invalidated before being
// handed out.
func (t *MDST) victim() int {
	lruFull, lruAny := -1, -1
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			return i
		}
		if e.full && (lruFull < 0 || e.lastUse < t.entries[lruFull].lastUse) {
			lruFull = i
		}
		if lruAny < 0 || e.lastUse < t.entries[lruAny].lastUse {
			lruAny = i
		}
	}
	v := lruFull
	if v < 0 {
		v = lruAny
	}
	t.invalidate(&t.entries[v])
	return v
}

// install fills a victim slot and registers it in the indexes.
func (t *MDST) install(i int, fill mdstEntry) {
	e := &t.entries[i]
	*e = fill
	t.index[mdstKey{e.loadPC, e.storePC, e.instance}] = int32(i)
	if !e.full && e.ldid != invalidID {
		t.addWaiter(e.ldid)
	}
	t.touch(e)
}

// AllocWaiting allocates (or reuses) an entry for a load that must wait: the
// full/empty flag is set to empty and the load identifier recorded.  It
// returns false if an entry for this dynamic dependence already exists with
// the full flag set -- in that case the store has already signalled, the
// entry is consumed (freed) and the load does not need to wait.
func (t *MDST) AllocWaiting(pair PairKey, instance uint64, ldid int64) (mustWait bool) {
	if e := t.find(pair, instance); e != nil {
		t.touch(e)
		if e.full {
			// Wait-after-signal: the store has already set the condition
			// variable; consume the entry and let the load continue
			// (figure 4 parts (e)/(f) of the paper).
			t.invalidate(e)
			return false
		}
		// A waiting entry already exists (for example allocated when the
		// prediction was first made); just record the load identifier.
		if e.ldid != ldid {
			if e.ldid != invalidID {
				t.dropWaiter(e.ldid)
			}
			e.ldid = ldid
			t.addWaiter(ldid)
		}
		return true
	}
	t.install(t.victim(), mdstEntry{
		valid:    true,
		loadPC:   pair.LoadPC,
		storePC:  pair.StorePC,
		ldid:     ldid,
		stid:     invalidID,
		instance: instance,
		full:     false,
	})
	return true
}

// Signal is invoked when a store that matches an MDPT entry is ready to
// access memory.  instance is the instance number of the load that should be
// synchronized (store instance + dependence distance).  If a waiting entry is
// found its load identifier is returned (the load may now proceed) and the
// entry is freed.  If no entry exists, a new one is allocated with the
// full/empty flag set to full so that the load, when it arrives, continues
// without delay.
func (t *MDST) Signal(pair PairKey, instance uint64, stid int64) (ldid int64, released bool) {
	if e := t.find(pair, instance); e != nil {
		t.touch(e)
		if !e.full && e.ldid != invalidID {
			// Signal-after-wait: release the waiting load and free the entry
			// (figure 4 part (d)).
			id := e.ldid
			t.invalidate(e)
			return id, true
		}
		// The entry is already full (a duplicate signal): nothing to release.
		e.stid = stid
		return invalidID, false
	}
	t.install(t.victim(), mdstEntry{
		valid:    true,
		loadPC:   pair.LoadPC,
		storePC:  pair.StorePC,
		ldid:     invalidID,
		stid:     stid,
		instance: instance,
		full:     true,
	})
	return invalidID, false
}

// ReleaseLoad frees all entries recorded for the given load identifier.  It
// is used both when a waiting load is released because all prior stores have
// resolved (incomplete synchronization, section 4.4.2) and when a load is
// squashed (section 4.4.3).  It returns the static pairs of the freed entries
// so the caller can update the prediction table; the slice shares a scratch
// backing owned by the table and is valid until the next ReleaseLoad or
// ReleaseStore call.
func (t *MDST) ReleaseLoad(ldid int64) []PairKey {
	remaining := t.waiting[ldid]
	if remaining == 0 {
		return nil
	}
	freed := t.freedScratch[:0]
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.ldid == ldid {
			freed = append(freed, PairKey{LoadPC: e.loadPC, StorePC: e.storePC})
			t.invalidate(e)
			if remaining--; remaining == 0 {
				break
			}
		}
	}
	t.freedScratch = freed
	return freed
}

// ReleaseStore frees all entries allocated by the given store identifier that
// never met their load (used on store squash).  The returned slice shares a
// scratch backing owned by the table and is valid until the next ReleaseLoad
// or ReleaseStore call.
func (t *MDST) ReleaseStore(stid int64) []PairKey {
	freed := t.freedScratch[:0]
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.stid == stid && e.ldid == invalidID {
			freed = append(freed, PairKey{LoadPC: e.loadPC, StorePC: e.storePC})
			t.invalidate(e)
		}
	}
	t.freedScratch = freed
	return freed
}

// HasWaiter reports whether the given load identifier still has at least one
// empty (waiting) entry -- used to decide whether a load released by one
// signal must keep waiting for further predicted dependences (section 4.4.4).
func (t *MDST) HasWaiter(ldid int64) bool {
	return t.waiting[ldid] > 0
}

// Reset invalidates all entries.  The backing array, the indexes and the
// scratch buffer are retained, so a reset table performs no steady-state
// allocations when reused by a simulator arena.
func (t *MDST) Reset() {
	for i := range t.entries {
		t.entries[i] = mdstEntry{}
	}
	clear(t.index)
	clear(t.waiting)
	t.clock = 0
}
