package memdep

// StoreSetPredictor is a store-set-style organization of the dependence
// predictor (TableStoreSet), after Chrysos & Emer's store sets: instead of
// keeping one entry per static (store, load) pair, loads and stores that are
// transitively related by mis-speculations are merged into one *store set*
// with a shared confidence counter.  A load that belongs to a set predicts a
// dependence on every store member of that set, so a single mis-speculation
// against one store generalizes to its siblings -- fewer table entries cover
// chains like `a[i] = ...; ... = a[i-1]` reached through several store sites,
// at the price of false dependences when unrelated stores share a set.
//
// The structure is sized like the set-associative table: Entries/Ways sets,
// each holding at most Ways load members and Ways store members (LRU-evicted
// under pressure).  Per-pair state that the MDST protocol needs -- the
// dependence distance and the producing task's PC for ESYNC -- lives on the
// store member, so a store's signal still targets the right load instance.
//
//memdep:resettable
type StoreSetPredictor struct {
	cfg  Config //lint:reset-exempt construction-time configuration, immutable across runs
	ways int    //lint:reset-exempt set capacity fixed at construction
	sets []storeSet
	// loadSSIT / storeSSIT map a PC to the index of the set it belongs to
	// (the store set identifier tables).  A PC belongs to at most one set.
	// loadFilter / storeFilter count their keys, so a lookup for a PC that
	// belongs to no set returns before the map is hashed.
	loadSSIT    map[uint64]int
	storeSSIT   map[uint64]int
	loadFilter  pcFilter
	storeFilter pcFilter
	clock       uint64
}

var _ Predictor = (*StoreSetPredictor)(nil)

// ssLoad is one load member of a store set.
type ssLoad struct {
	pc      uint64
	lastUse uint64
}

// ssStore is one store member of a store set, carrying the per-dependence
// state the synchronization protocol needs.
type ssStore struct {
	pc          uint64
	dist        uint64
	storeTaskPC uint64
	lastUse     uint64
}

// storeSet is one set: its shared confidence counter and its members in
// insertion order (kept as slices so every walk is deterministic).
type storeSet struct {
	valid   bool
	counter int
	lastUse uint64
	loads   []ssLoad
	stores  []ssStore
}

// NewStoreSetPredictor creates a store-set predictor from the configuration.
// The constructor implies its own organization, so cfg.Table need not be set.
func NewStoreSetPredictor(cfg Config) *StoreSetPredictor {
	cfg.Table = TableStoreSet // so withDefaults applies the ways rules, not full-assoc's
	cfg = cfg.withDefaults()
	return &StoreSetPredictor{
		cfg:         cfg,
		ways:        cfg.Ways,
		sets:        make([]storeSet, cfg.Entries/cfg.Ways),
		loadSSIT:    make(map[uint64]int),
		storeSSIT:   make(map[uint64]int),
		loadFilter:  newPCFilter(cfg.Entries),
		storeFilter: newPCFilter(cfg.Entries),
	}
}

func (t *StoreSetPredictor) touchSet(s *storeSet) {
	t.clock++
	s.lastUse = t.clock
}

func (t *StoreSetPredictor) prediction(pair PairKey, st *ssStore, counter int) Prediction {
	return Prediction{
		Pair:        pair,
		Dist:        st.dist,
		StoreTaskPC: st.storeTaskPC,
		Sync:        t.cfg.syncPredicted(counter),
	}
}

// MatchesForLoad implements Predictor: a member load predicts a dependence on
// every store member of its set.  dst is caller-owned: results are never
// invalidated by a later call.
func (t *StoreSetPredictor) MatchesForLoad(loadPC uint64, dst []Prediction) []Prediction {
	if !t.loadFilter.mayHold(loadPC) {
		return dst
	}
	sid, ok := t.loadSSIT[loadPC]
	if !ok {
		return dst
	}
	s := &t.sets[sid]
	t.touchSet(s)
	for i := range s.loads {
		if s.loads[i].pc == loadPC {
			s.loads[i].lastUse = t.clock
			break
		}
	}
	for i := range s.stores {
		st := &s.stores[i]
		dst = append(dst, t.prediction(PairKey{LoadPC: loadPC, StorePC: st.pc}, st, s.counter))
	}
	return dst
}

// MatchesForStore implements Predictor: a member store matches every load
// member of its set, carrying its own distance and task PC.  dst is
// caller-owned: results are never invalidated by a later call.
func (t *StoreSetPredictor) MatchesForStore(storePC uint64, dst []Prediction) []Prediction {
	if !t.storeFilter.mayHold(storePC) {
		return dst
	}
	sid, ok := t.storeSSIT[storePC]
	if !ok {
		return dst
	}
	s := &t.sets[sid]
	var st *ssStore
	for i := range s.stores {
		if s.stores[i].pc == storePC {
			st = &s.stores[i]
			break
		}
	}
	if st == nil {
		return dst
	}
	t.touchSet(s)
	st.lastUse = t.clock
	for i := range s.loads {
		dst = append(dst, t.prediction(PairKey{LoadPC: s.loads[i].pc, StorePC: storePC}, st, s.counter))
	}
	return dst
}

// RecordMisspeculation implements Predictor: place the load and the store in
// one common set (allocating or merging as needed) and raise its counter.
func (t *StoreSetPredictor) RecordMisspeculation(pair PairKey, dist uint64, storeTaskPC uint64) {
	lsid, lok := t.loadSSIT[pair.LoadPC]
	ssid, sok := t.storeSSIT[pair.StorePC]
	known := lok && sok && lsid == ssid
	var sid int
	switch {
	case known:
		sid = lsid
	case lok && sok:
		// Two existing sets are related by this mis-speculation: merge into
		// the lower-indexed one (a deterministic tie-break, in the spirit of
		// the store-set "smaller identifier wins" rule).
		sid = t.merge(min(lsid, ssid), max(lsid, ssid))
	case lok:
		sid = lsid
	case sok:
		sid = ssid
	default:
		sid = t.allocSet()
	}
	s := &t.sets[sid]
	t.touchSet(s)
	t.addLoad(sid, pair.LoadPC)
	t.addStore(sid, pair.StorePC, dist, storeTaskPC)
	if s.counter < t.cfg.counterMax() {
		s.counter++
	}
}

// allocSet returns the index of a set to allocate into: an invalid set if one
// exists, otherwise the LRU set (whose members are expelled from the SSITs).
func (t *StoreSetPredictor) allocSet() int {
	lru := 0
	for i := range t.sets {
		s := &t.sets[i]
		if !s.valid {
			s.valid = true
			s.counter = t.cfg.initialCounter() - 1 // RecordMisspeculation increments
			t.touchSet(s)
			return i
		}
		if s.lastUse < t.sets[lru].lastUse {
			lru = i
		}
	}
	t.invalidateSet(lru)
	s := &t.sets[lru]
	s.valid = true
	s.counter = t.cfg.initialCounter() - 1
	t.touchSet(s)
	return lru
}

// invalidateSet clears a set and removes its members from the SSITs.
func (t *StoreSetPredictor) invalidateSet(sid int) {
	s := &t.sets[sid]
	for i := range s.loads {
		delete(t.loadSSIT, s.loads[i].pc)
		t.loadFilter.remove(s.loads[i].pc)
	}
	for i := range s.stores {
		delete(t.storeSSIT, s.stores[i].pc)
		t.storeFilter.remove(s.stores[i].pc)
	}
	*s = storeSet{loads: s.loads[:0], stores: s.stores[:0]}
}

// merge moves the members of set `from` into set `into` (evicting LRU members
// of `into` if the ways bound overflows) and invalidates `from`.
func (t *StoreSetPredictor) merge(into, from int) int {
	src := &t.sets[from]
	loads := append([]ssLoad(nil), src.loads...)
	stores := append([]ssStore(nil), src.stores...)
	if c := src.counter; c > t.sets[into].counter {
		t.sets[into].counter = c
	}
	t.invalidateSet(from)
	for i := range loads {
		t.addLoad(into, loads[i].pc)
	}
	for i := range stores {
		t.addStore(into, stores[i].pc, stores[i].dist, stores[i].storeTaskPC)
	}
	return into
}

// addLoad makes loadPC a member of the set, evicting the set's LRU load
// member when the ways bound is reached.
func (t *StoreSetPredictor) addLoad(sid int, loadPC uint64) {
	s := &t.sets[sid]
	for i := range s.loads {
		if s.loads[i].pc == loadPC {
			t.clock++
			s.loads[i].lastUse = t.clock
			return
		}
	}
	if len(s.loads) >= t.ways {
		lru := 0
		for i := range s.loads {
			if s.loads[i].lastUse < s.loads[lru].lastUse {
				lru = i
			}
		}
		delete(t.loadSSIT, s.loads[lru].pc)
		t.loadFilter.remove(s.loads[lru].pc)
		s.loads = append(s.loads[:lru], s.loads[lru+1:]...)
	}
	t.clock++
	s.loads = append(s.loads, ssLoad{pc: loadPC, lastUse: t.clock})
	t.loadSSIT[loadPC] = sid // a new key: loadPC is in no set
	t.loadFilter.add(loadPC)
}

// addStore makes storePC a member of the set (updating its distance and task
// PC if already present), evicting the LRU store member under pressure.
func (t *StoreSetPredictor) addStore(sid int, storePC uint64, dist uint64, storeTaskPC uint64) {
	s := &t.sets[sid]
	for i := range s.stores {
		if s.stores[i].pc == storePC {
			t.clock++
			s.stores[i].dist = dist
			s.stores[i].storeTaskPC = storeTaskPC
			s.stores[i].lastUse = t.clock
			return
		}
	}
	if len(s.stores) >= t.ways {
		lru := 0
		for i := range s.stores {
			if s.stores[i].lastUse < s.stores[lru].lastUse {
				lru = i
			}
		}
		delete(t.storeSSIT, s.stores[lru].pc)
		t.storeFilter.remove(s.stores[lru].pc)
		s.stores = append(s.stores[:lru], s.stores[lru+1:]...)
	}
	t.clock++
	s.stores = append(s.stores, ssStore{pc: storePC, dist: dist, storeTaskPC: storeTaskPC, lastUse: t.clock})
	t.storeSSIT[storePC] = sid // a new key: storePC is in no set
	t.storeFilter.add(storePC)
}

// pairSet returns the set shared by the pair's load and store, or nil.
func (t *StoreSetPredictor) pairSet(pair PairKey) *storeSet {
	lsid, lok := t.loadSSIT[pair.LoadPC]
	ssid, sok := t.storeSSIT[pair.StorePC]
	if !lok || !sok || lsid != ssid {
		return nil
	}
	return &t.sets[lsid]
}

// Strengthen implements Predictor on the set's shared counter; pairs whose
// members do not share a set are ignored.
func (t *StoreSetPredictor) Strengthen(pair PairKey) {
	if s := t.pairSet(pair); s != nil {
		if s.counter < t.cfg.counterMax() {
			s.counter++
		}
	}
}

// Weaken implements Predictor on the set's shared counter; pairs whose
// members do not share a set are ignored.
func (t *StoreSetPredictor) Weaken(pair PairKey) {
	if s := t.pairSet(pair); s != nil {
		if s.counter > 0 {
			s.counter--
		}
	}
}

// Reset implements Predictor.  The SSIT maps are cleared in place so a
// reused predictor allocates little in steady state.
func (t *StoreSetPredictor) Reset() {
	for i := range t.sets {
		s := &t.sets[i]
		*s = storeSet{loads: s.loads[:0], stores: s.stores[:0]}
	}
	clear(t.loadSSIT)
	clear(t.storeSSIT)
	clear(t.loadFilter)
	clear(t.storeFilter)
	t.clock = 0
}
