package memdep

// mdstEntry is one entry of the memory dependence synchronization table
// (section 4.2): valid flag, load and store instruction addresses, load and
// store identifiers (assigned by the out-of-order core), the dynamic instance
// tag, and the full/empty flag that acts as the condition variable.
//
// The links thread the entry through two of the table's indexes, each ended
// by noSlot: idPrev/idNext through the chain of its identifier (its ldid
// while empty, its stid while full), and hashNext through its hash bucket.
type mdstEntry struct {
	loadPC   uint64
	storePC  uint64
	instance uint64
	ldid     int64
	stid     int64

	idPrev, idNext int32
	hashNext       int32

	valid bool
	full  bool
}

// invalidID marks an identifier slot whose instruction has not been seen yet
// (for example the load identifier of an entry allocated by a store).
const invalidID int64 = -1

// MDST is the memory dependence synchronization table: a dynamic pool of
// condition variables together with the mechanism to associate them with
// dynamic store→load instruction pairs.
//
// The table sits on the timing simulator's per-memory-operation hot path, so
// every operation costs a constant amount of work, independent of the
// table's size; the entry array is the source of truth and the indexes
// below are maintained by every allocation, signal and release
// (TestMDSTIndexConsistency rebuilds them from the entries):
//
//   - A dynamic instance (load PC, store PC, instance) is found through
//     buckets, heads of hash chains of slot indices.
//   - Replacement order lives in two LRU lists (linked through lruLinks),
//     one of full entries and one of waiting (empty) ones.  Two suffice
//     because an entry's full/empty flag never changes between its
//     allocation and its release: a waiting entry is freed by the signal
//     that fills it.  The victim is the head of the full list, else the
//     head of the waiting list -- the least recently used full entry, else
//     the least recently used entry.
//   - Waiting entries are chained per load identifier (ldHead) and full
//     entries per store identifier (stHead), so ReleaseLoad, ReleaseStore
//     and HasWaiter visit only their identifier's entries.  Identifiers are
//     the work item's instruction indices, and Reset sizes the heads for
//     them.  A head is noSlot unless its chain is non-empty, which lets
//     Reset clear only the heads of valid entries.
//   - Free slots are a stack.
//
// The slot an entry occupies is not observable: lookups go by key, the
// victim by recency, and the pairs ReleaseLoad and ReleaseStore return are
// a multiset whose order no caller reads (see ReleaseLoad).
//
//memdep:resettable
type MDST struct {
	entries  []mdstEntry
	free     []int32
	lru      [2]list // [0] waiting entries, [1] full entries
	lruLinks []link  //lint:reset-exempt overwritten before every read: a slot is linked when it is allocated

	buckets []int32
	shift   uint8 //lint:reset-exempt hash geometry fixed by the capacity

	ldHead []int32
	stHead []int32

	// freedScratch backs the slices returned by ReleaseLoad/ReleaseStore;
	// the result is valid until the next call to either.
	freedScratch []PairKey //lint:reset-exempt scratch backing, overwritten before every read
}

// NewMDST creates a synchronization table with the given number of entries
// for identifiers in [0, ids).
func NewMDST(capacity, ids int) *MDST {
	t := &MDST{}
	t.resize(capacity)
	t.Reset(ids)
	return t
}

// resize gives the table capacity entries (at least one), reusing the
// backing arrays of a larger earlier size.  Reset must follow before use.
func (t *MDST) resize(capacity int) {
	capacity = max(capacity, 1)
	t.clearHeads()
	clear(t.entries) // so every slot past the new size stays invalid
	if cap(t.entries) < capacity {
		t.entries = make([]mdstEntry, capacity)
		t.free = make([]int32, 0, capacity)
		t.lruLinks = make([]link, capacity)
	}
	t.entries = t.entries[:capacity]
	// A power of two of at least twice the capacity keeps the chains short.
	bits := uint8(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	if cap(t.buckets) < 1<<bits {
		t.buckets = make([]int32, 1<<bits)
	}
	t.buckets = t.buckets[:1<<bits]
	t.shift = 64 - bits
}

// clearHeads empties the identifier chains of every valid entry, leaving
// every head noSlot.
func (t *MDST) clearHeads() {
	for i := range t.entries {
		if e := &t.entries[i]; e.valid {
			*t.chain(e) = noSlot
		}
	}
}

// bucket returns the hash bucket of a dynamic instance.
func (t *MDST) bucket(pair PairKey, instance uint64) *int32 {
	h := pair.LoadPC*0x9e3779b97f4a7c15 + pair.StorePC*0xc2b2ae3d27d4eb4f + instance*0x165667b19e3779f9
	return &t.buckets[h>>t.shift]
}

// find returns the slot of the entry for a dynamic dependence instance, or
// noSlot.
//
//memdep:hotpath
func (t *MDST) find(pair PairKey, instance uint64) int32 {
	for i := *t.bucket(pair, instance); i != noSlot; i = t.entries[i].hashNext {
		e := &t.entries[i]
		if e.instance == instance && e.loadPC == pair.LoadPC && e.storePC == pair.StorePC {
			return i
		}
	}
	return noSlot
}

// lruOf returns the LRU list of the entry's kind.
func (t *MDST) lruOf(e *mdstEntry) *list {
	if e.full {
		return &t.lru[1]
	}
	return &t.lru[0]
}

// chain returns the head of the identifier chain the entry belongs to.
func (t *MDST) chain(e *mdstEntry) *int32 {
	if e.full {
		return &t.stHead[e.stid]
	}
	return &t.ldHead[e.ldid]
}

// linkID pushes slot i onto the chain of its identifier.
func (t *MDST) linkID(i int32) {
	e := &t.entries[i]
	h := t.chain(e)
	e.idPrev, e.idNext = noSlot, *h
	if *h != noSlot {
		t.entries[*h].idPrev = i
	}
	*h = i
}

// unlinkID removes slot i from the chain of its identifier.
func (t *MDST) unlinkID(i int32) {
	e := &t.entries[i]
	if e.idPrev != noSlot {
		t.entries[e.idPrev].idNext = e.idNext
	} else {
		*t.chain(e) = e.idNext
	}
	if e.idNext != noSlot {
		t.entries[e.idNext].idPrev = e.idPrev
	}
}

// invalidate frees slot i, unhooking it from every index.
//
//memdep:hotpath
func (t *MDST) invalidate(i int32) {
	e := &t.entries[i]
	p := t.bucket(PairKey{LoadPC: e.loadPC, StorePC: e.storePC}, e.instance)
	for *p != i {
		p = &t.entries[*p].hashNext
	}
	*p = e.hashNext
	t.lruOf(e).remove(t.lruLinks, i)
	t.unlinkID(i)
	e.valid = false
	t.free = append(t.free, i) //lint:alloc-ok bounded by the capacity preallocated in resize
}

// install allocates an entry: a free slot if any, otherwise the least
// recently used full entry (a synchronization that has already fired and is
// only waiting for its load), otherwise the least recently used entry
// overall (section 4.4.2 discusses both reclamation policies).  A valid
// victim is invalidated before its slot is reused.
//
//memdep:hotpath
func (t *MDST) install(pair PairKey, instance uint64, ldid, stid int64, full bool) {
	if len(t.free) == 0 {
		v := t.lru[1].head
		if v == noSlot {
			v = t.lru[0].head
		}
		t.invalidate(v)
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	b := t.bucket(pair, instance)
	t.entries[i] = mdstEntry{
		loadPC:   pair.LoadPC,
		storePC:  pair.StorePC,
		instance: instance,
		ldid:     ldid,
		stid:     stid,
		hashNext: *b,
		valid:    true,
		full:     full,
	}
	*b = i
	t.lruOf(&t.entries[i]).pushBack(t.lruLinks, i)
	t.linkID(i)
}

// AllocWaiting allocates (or reuses) an entry for a load that must wait: the
// full/empty flag is set to empty and the load identifier recorded.  It
// returns false if an entry for this dynamic dependence already exists with
// the full flag set -- in that case the store has already signalled, the
// entry is consumed (freed) and the load does not need to wait.  ldid must
// lie in [0, ids) of the last Reset.
//
//memdep:hotpath
func (t *MDST) AllocWaiting(pair PairKey, instance uint64, ldid int64) (mustWait bool) {
	if i := t.find(pair, instance); i != noSlot {
		e := &t.entries[i]
		if e.full {
			// Wait-after-signal: the store has already set the condition
			// variable; consume the entry and let the load continue
			// (figure 4 parts (e)/(f) of the paper).
			t.invalidate(i)
			return false
		}
		// A waiting entry already exists (for example allocated when the
		// prediction was first made); just record the load identifier.
		t.lru[0].moveToBack(t.lruLinks, i)
		if e.ldid != ldid {
			t.unlinkID(i)
			e.ldid = ldid
			t.linkID(i)
		}
		return true
	}
	t.install(pair, instance, ldid, invalidID, false)
	return true
}

// Signal is invoked when a store that matches an MDPT entry is ready to
// access memory.  instance is the instance number of the load that should be
// synchronized (store instance + dependence distance).  If a waiting entry is
// found its load identifier is returned (the load may now proceed) and the
// entry is freed.  If no entry exists, a new one is allocated with the
// full/empty flag set to full so that the load, when it arrives, continues
// without delay.  stid must lie in [0, ids) of the last Reset.
//
//memdep:hotpath
func (t *MDST) Signal(pair PairKey, instance uint64, stid int64) (ldid int64, released bool) {
	if i := t.find(pair, instance); i != noSlot {
		e := &t.entries[i]
		if !e.full {
			// Signal-after-wait: release the waiting load and free the entry
			// (figure 4 part (d)).
			id := e.ldid
			t.invalidate(i)
			return id, true
		}
		// The entry is already full (a duplicate signal): nothing to release.
		t.lru[1].moveToBack(t.lruLinks, i)
		if e.stid != stid {
			t.unlinkID(i)
			e.stid = stid
			t.linkID(i)
		}
		return invalidID, false
	}
	t.install(pair, instance, invalidID, stid, true)
	return invalidID, false
}

// ReleaseLoad frees all entries recorded for the given load identifier.  It
// is used both when a waiting load is released because all prior stores have
// resolved (incomplete synchronization, section 4.4.2) and when a load is
// squashed (section 4.4.3).  It returns the static pairs of the freed entries
// so the caller can update the prediction table; the slice shares a scratch
// backing owned by the table and is valid until the next ReleaseLoad or
// ReleaseStore call.  The pairs come in no particular order: System only
// counts them or weakens each, and weakening saturating counters commutes.
func (t *MDST) ReleaseLoad(ldid int64) []PairKey {
	return t.release(&t.ldHead[ldid])
}

// ReleaseStore frees all entries allocated by the given store identifier that
// never met their load (used on store squash).  The returned slice shares a
// scratch backing owned by the table and is valid until the next ReleaseLoad
// or ReleaseStore call.
func (t *MDST) ReleaseStore(stid int64) []PairKey {
	return t.release(&t.stHead[stid])
}

// release frees every entry of one identifier chain.
//
//memdep:hotpath
func (t *MDST) release(head *int32) []PairKey {
	freed := t.freedScratch[:0]
	for i := *head; i != noSlot; i = *head {
		e := &t.entries[i]
		freed = append(freed, PairKey{LoadPC: e.loadPC, StorePC: e.storePC}) //lint:alloc-ok reusable scratch, growth amortized across releases
		t.invalidate(i)
	}
	t.freedScratch = freed
	return freed
}

// HasWaiter reports whether the given load identifier still has at least one
// empty (waiting) entry -- used to decide whether a load released by one
// signal must keep waiting for further predicted dependences (section 4.4.4).
//
//memdep:hotpath
func (t *MDST) HasWaiter(ldid int64) bool {
	return t.ldHead[ldid] != noSlot
}

// Reset invalidates all entries and sizes the identifier chains for
// identifiers in [0, ids).  The backing arrays are retained and grow only,
// so a reset table performs no steady-state allocations when reused by a
// simulator arena.
func (t *MDST) Reset(ids int) {
	t.clearHeads()
	if cap(t.ldHead) < ids {
		t.ldHead = make([]int32, ids)
		t.stHead = make([]int32, ids)
		for i := range t.ldHead {
			t.ldHead[i], t.stHead[i] = noSlot, noSlot
		}
	}
	t.ldHead, t.stHead = t.ldHead[:ids], t.stHead[:ids]
	t.free = t.free[:0]
	for i := len(t.entries) - 1; i >= 0; i-- {
		t.entries[i] = mdstEntry{}
		t.free = append(t.free, int32(i))
	}
	for i := range t.buckets {
		t.buckets[i] = noSlot
	}
	t.lru = [2]list{emptyList, emptyList}
}
