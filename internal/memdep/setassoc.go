package memdep

// SetAssocMDPT is the set-associative organization of the memory dependence
// prediction table (TableSetAssoc): Entries slots arranged as Entries/Ways
// sets indexed by the load PC, with LRU replacement inside each set.  The
// load-side lookup -- the hottest predictor operation on the simulator's
// per-load path -- probes exactly one set, so it costs O(ways) instead of the
// fully associative table's O(entries) scan.  The store-side lookup is served
// by an inverted index from store PC to the slots currently holding it, so it
// costs O(matches).
//
// Prediction semantics (counters, thresholds, distances, ESYNC task PCs) are
// identical to MDPT; only placement and replacement differ.  A dependence
// working set that conflicts in one set can therefore thrash a low-way table
// even when the table as a whole has room -- exactly the capacity/conflict
// sensitivity the sweep experiment measures.
//
//memdep:resettable
type SetAssocMDPT struct {
	cfg  Config //lint:reset-exempt construction-time configuration, immutable across runs
	ways int    //lint:reset-exempt table geometry fixed at construction
	sets int    //lint:reset-exempt table geometry fixed at construction
	// entries holds the sets back to back: set i occupies
	// entries[i*ways : (i+1)*ways].
	entries []mdptEntry
	// storeIdx maps a store PC to the slots whose valid entry carries it, in
	// allocation order, so MatchesForStore avoids scanning the whole table.
	storeIdx map[uint64][]int
	clock    uint64

	allocations  uint64
	replacements uint64
	strengthens  uint64
	weakens      uint64
}

var _ Predictor = (*SetAssocMDPT)(nil)

// NewSetAssocMDPT creates a set-associative prediction table from the
// configuration: cfg.Entries slots at cfg.Ways associativity (clamped to the
// entry count; a partial trailing set is dropped rather than padded).  The
// constructor implies its own organization, so cfg.Table need not be set.
func NewSetAssocMDPT(cfg Config) *SetAssocMDPT {
	cfg.Table = TableSetAssoc // so withDefaults applies the ways rules, not full-assoc's
	cfg = cfg.withDefaults()
	ways := cfg.Ways
	sets := cfg.Entries / ways
	if sets < 1 {
		sets = 1
	}
	return &SetAssocMDPT{
		cfg:      cfg,
		ways:     ways,
		sets:     sets,
		entries:  make([]mdptEntry, sets*ways),
		storeIdx: make(map[uint64][]int),
	}
}

// Kind implements Predictor.
func (t *SetAssocMDPT) Kind() TableKind { return TableSetAssoc }

// Ways returns the table's associativity.
func (t *SetAssocMDPT) Ways() int { return t.ways }

// Sets returns the number of sets.
func (t *SetAssocMDPT) Sets() int { return t.sets }

// Capacity returns the number of slots.
func (t *SetAssocMDPT) Capacity() int { return len(t.entries) }

// Len returns the number of valid entries.
func (t *SetAssocMDPT) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// setBase returns the first slot of the set the load PC indexes.
// Instructions are word-aligned, so the low PC bits are dropped before the
// modulo to spread consecutive static loads across sets.
func (t *SetAssocMDPT) setBase(loadPC uint64) int {
	return int((loadPC>>2)%uint64(t.sets)) * t.ways
}

func (t *SetAssocMDPT) touch(e *mdptEntry) {
	t.clock++
	e.lastUse = t.clock
}

// find returns the slot holding the exact static pair, or -1.
func (t *SetAssocMDPT) find(pair PairKey) int {
	base := t.setBase(pair.LoadPC)
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if e.valid && e.loadPC == pair.LoadPC && e.storePC == pair.StorePC {
			return i
		}
	}
	return -1
}

func (t *SetAssocMDPT) prediction(e *mdptEntry) Prediction {
	return Prediction{
		Pair:        PairKey{LoadPC: e.loadPC, StorePC: e.storePC},
		Dist:        e.dist,
		Counter:     e.counter,
		StoreTaskPC: e.storeTaskPC,
		Sync:        t.cfg.syncPredicted(e.counter),
	}
}

// Lookup implements Predictor.
func (t *SetAssocMDPT) Lookup(pair PairKey) (Prediction, bool) {
	if i := t.find(pair); i >= 0 {
		return t.prediction(&t.entries[i]), true
	}
	return Prediction{}, false
}

// MatchesForLoad implements Predictor with an O(ways) probe of the load's
// set.  dst is caller-owned: results are never invalidated by a later call.
//
//memdep:hotpath
func (t *SetAssocMDPT) MatchesForLoad(loadPC uint64, dst []Prediction) []Prediction {
	base := t.setBase(loadPC)
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if e.valid && e.loadPC == loadPC {
			t.touch(e)
			dst = append(dst, t.prediction(e)) //lint:alloc-ok caller-owned scratch buffer, growth amortized
		}
	}
	return dst
}

// MatchesForStore implements Predictor through the inverted store index.
// dst is caller-owned: results are never invalidated by a later call.
//
//memdep:hotpath
func (t *SetAssocMDPT) MatchesForStore(storePC uint64, dst []Prediction) []Prediction {
	for _, slot := range t.storeIdx[storePC] {
		e := &t.entries[slot]
		if e.valid && e.storePC == storePC {
			t.touch(e)
			dst = append(dst, t.prediction(e)) //lint:alloc-ok caller-owned scratch buffer, growth amortized
		}
	}
	return dst
}

// RecordMisspeculation implements Predictor: allocate into the load's set (or
// strengthen the existing entry), evicting the set's LRU way under pressure.
func (t *SetAssocMDPT) RecordMisspeculation(pair PairKey, dist uint64, storeTaskPC uint64) {
	if i := t.find(pair); i >= 0 {
		e := &t.entries[i]
		e.dist = dist
		e.storeTaskPC = storeTaskPC
		t.strengthen(e)
		t.touch(e)
		return
	}
	slot := t.victim(pair.LoadPC)
	e := &t.entries[slot]
	if e.valid {
		t.replacements++
		t.dropStoreIdx(e.storePC, slot)
	}
	t.allocations++
	*e = mdptEntry{
		valid:       true,
		loadPC:      pair.LoadPC,
		storePC:     pair.StorePC,
		dist:        dist,
		counter:     t.cfg.initialCounter(),
		storeTaskPC: storeTaskPC,
	}
	t.storeIdx[pair.StorePC] = append(t.storeIdx[pair.StorePC], slot)
	t.touch(e)
}

// victim returns the slot to allocate into within the load's set: an invalid
// way if one exists, otherwise the least recently used way.
func (t *SetAssocMDPT) victim(loadPC uint64) int {
	base := t.setBase(loadPC)
	lru := base
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if !e.valid {
			return i
		}
		if e.lastUse < t.entries[lru].lastUse {
			lru = i
		}
	}
	return lru
}

// dropStoreIdx removes one slot from a store PC's inverted-index list,
// preserving the order of the remaining slots.
func (t *SetAssocMDPT) dropStoreIdx(storePC uint64, slot int) {
	slots := t.storeIdx[storePC]
	for i, s := range slots {
		if s == slot {
			slots = append(slots[:i], slots[i+1:]...)
			break
		}
	}
	if len(slots) == 0 {
		delete(t.storeIdx, storePC)
	} else {
		t.storeIdx[storePC] = slots
	}
}

func (t *SetAssocMDPT) strengthen(e *mdptEntry) {
	if e.counter < t.cfg.counterMax() {
		e.counter++
	}
	t.strengthens++
}

func (t *SetAssocMDPT) weaken(e *mdptEntry) {
	if e.counter > 0 {
		e.counter--
	}
	t.weakens++
}

// Strengthen implements Predictor; unknown pairs are ignored.
func (t *SetAssocMDPT) Strengthen(pair PairKey) {
	if i := t.find(pair); i >= 0 {
		t.strengthen(&t.entries[i])
	}
}

// Weaken implements Predictor; unknown pairs are ignored.
func (t *SetAssocMDPT) Weaken(pair PairKey) {
	if i := t.find(pair); i >= 0 {
		t.weaken(&t.entries[i])
	}
}

// Stats implements Predictor.
func (t *SetAssocMDPT) Stats() MDPTStats {
	return MDPTStats{
		Allocations:  t.allocations,
		Replacements: t.replacements,
		Strengthens:  t.strengthens,
		Weakens:      t.weakens,
		LiveEntries:  t.Len(),
	}
}

// Reset implements Predictor.  The inverted index is cleared in place
// (per-PC slices keep their backing capacity) so a reused table allocates
// little in steady state.
func (t *SetAssocMDPT) Reset() {
	for i := range t.entries {
		t.entries[i] = mdptEntry{}
	}
	for pc, s := range t.storeIdx { //lint:deterministic in-place clear, every key treated identically
		t.storeIdx[pc] = s[:0]
	}
	t.clock = 0
	t.allocations, t.replacements, t.strengthens, t.weakens = 0, 0, 0, 0
}
