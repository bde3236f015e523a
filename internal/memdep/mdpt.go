package memdep

// mdptEntry is one entry of the memory dependence prediction table
// (section 4.1): valid flag, load and store instruction addresses, the
// dependence distance, the optional prediction state (an up/down saturating
// counter), and -- for the ESYNC predictor -- the PC of the task that issued
// the store.
type mdptEntry struct {
	valid       bool
	loadPC      uint64
	storePC     uint64
	dist        uint64
	counter     int
	storeTaskPC uint64
	lastUse     uint64
}

// MDPT is the memory dependence prediction table: an LRU-managed table of
// static store→load pairs, arranged as sets × ways.  An entry identifies a
// static dependence and predicts whether its future dynamic instances should
// be synchronized.  The paper's table (TableFullAssoc) is one set of Entries
// ways; TableSetAssoc arranges Entries/Ways sets indexed by the load PC, so
// a pair may only occupy, and only evict within, its load's set.  A
// dependence working set that conflicts in one set can therefore thrash a
// low-way table even when the table as a whole has room -- the
// capacity/conflict sensitivity the sweep experiment measures.  See
// StoreSetPredictor for the other organization.
//
// Lookups run once per load and store the timing core issues, so the table
// keeps three incrementally maintained indexes over its entry array: pairIdx
// (exact static pair → slot) and loadIdx/storeIdx (PC → slots, in ascending
// slot order).  Ascending order matters: MatchesForLoad/MatchesForStore touch
// every match, each touch advances the LRU clock, and replacement decisions
// observe those clocks -- so index traversal must visit entries in exactly
// the order a scan of the table would.  Most PCs have no entry, so
// loadFilter/storeFilter answer those lookups before any map is hashed.
//
//memdep:resettable
type MDPT struct {
	cfg  Config //lint:reset-exempt construction-time configuration, immutable across runs
	ways int    //lint:reset-exempt table geometry fixed at construction
	sets int    //lint:reset-exempt table geometry fixed at construction
	// entries holds the sets back to back: set i occupies
	// entries[i*ways : (i+1)*ways].
	entries []mdptEntry
	clock   uint64

	pairIdx     map[PairKey]int32
	loadIdx     map[uint64][]int32
	storeIdx    map[uint64][]int32
	loadFilter  pcFilter
	storeFilter pcFilter
}

var _ Predictor = (*MDPT)(nil)

// NewMDPT creates a pair table from the configuration: Entries/Ways sets
// for TableSetAssoc, otherwise the fully associative table of one set.
func NewMDPT(cfg Config) *MDPT {
	if cfg.Table != TableSetAssoc {
		cfg.Table = TableFullAssoc
	}
	cfg = cfg.withDefaults()
	ways := cfg.Entries
	if cfg.Table == TableSetAssoc {
		ways = cfg.Ways
	}
	return &MDPT{
		cfg:         cfg,
		ways:        ways,
		sets:        cfg.Entries / ways,
		entries:     make([]mdptEntry, cfg.Entries),
		pairIdx:     make(map[PairKey]int32, cfg.Entries),
		loadIdx:     make(map[uint64][]int32, cfg.Entries),
		storeIdx:    make(map[uint64][]int32, cfg.Entries),
		loadFilter:  newPCFilter(cfg.Entries),
		storeFilter: newPCFilter(cfg.Entries),
	}
}

// pcFilter counts the PCs a table holds by their low word-address bits.  A
// zero count proves the table holds no entry for a PC, so a lookup for it
// returns without hashing; a non-zero count only means it may.
type pcFilter []int32

// newPCFilter sizes a filter for a table of the given number of entries:
// a power of two of 16 buckets per entry, so most PCs that miss the table
// land in an empty bucket, between 64 and 4,096 buckets.
func newPCFilter(entries int) pcFilter {
	n := 64
	for n < 16*entries && n < 1<<12 {
		n *= 2
	}
	return make(pcFilter, n)
}

func (f pcFilter) bucket(pc uint64) *int32 { return &f[(pc>>2)&uint64(len(f)-1)] }

// add counts one more entry for pc; remove one fewer.
func (f pcFilter) add(pc uint64)    { *f.bucket(pc)++ }
func (f pcFilter) remove(pc uint64) { *f.bucket(pc)-- }

// mayHold reports whether the table may hold an entry for pc.
func (f pcFilter) mayHold(pc uint64) bool { return *f.bucket(pc) != 0 }

func (t *MDPT) touch(e *mdptEntry) {
	t.clock++
	e.lastUse = t.clock
}

// insertSlot adds slot v to the sorted slice s, keeping ascending order.
func insertSlot(s []int32, v int32) []int32 {
	i := len(s)
	s = append(s, 0)
	for i > 0 && s[i-1] > v {
		s[i] = s[i-1]
		i--
	}
	s[i] = v
	return s
}

// removeSlot deletes slot v from the sorted slice s, preserving order.
func removeSlot(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// link registers the (already filled) slot in all three indexes.
func (t *MDPT) link(i int32) {
	e := &t.entries[i]
	t.pairIdx[PairKey{LoadPC: e.loadPC, StorePC: e.storePC}] = i
	t.loadIdx[e.loadPC] = insertSlot(t.loadIdx[e.loadPC], i)
	t.storeIdx[e.storePC] = insertSlot(t.storeIdx[e.storePC], i)
	t.loadFilter.add(e.loadPC)
	t.storeFilter.add(e.storePC)
}

// unlink removes the slot from all three indexes (the entry still holds its
// old PCs).  Emptied per-PC slices stay in the maps so their capacity is
// reused by later allocations.
func (t *MDPT) unlink(i int32) {
	e := &t.entries[i]
	delete(t.pairIdx, PairKey{LoadPC: e.loadPC, StorePC: e.storePC})
	t.loadIdx[e.loadPC] = removeSlot(t.loadIdx[e.loadPC], i)
	t.storeIdx[e.storePC] = removeSlot(t.storeIdx[e.storePC], i)
	t.loadFilter.remove(e.loadPC)
	t.storeFilter.remove(e.storePC)
}

// find returns the entry for the exact static pair, or nil.
//
//memdep:hotpath
func (t *MDPT) find(pair PairKey) *mdptEntry {
	if i, ok := t.pairIdx[pair]; ok {
		return &t.entries[i]
	}
	return nil
}

// Prediction is what a matching entry tells the synchronization protocol.
type Prediction struct {
	Pair        PairKey
	Dist        uint64
	StoreTaskPC uint64
	// Sync reports whether the predictor would enforce synchronization for
	// this entry (ignoring the ESYNC task-PC filter, which needs dynamic
	// context -- see System.LoadIssue).
	Sync bool
}

func (t *MDPT) prediction(e *mdptEntry) Prediction {
	return Prediction{
		Pair:        PairKey{LoadPC: e.loadPC, StorePC: e.storePC},
		Dist:        e.dist,
		StoreTaskPC: e.storeTaskPC,
		Sync:        t.cfg.syncPredicted(e.counter),
	}
}

// MatchesForLoad appends to dst the predictions of all valid entries whose
// load PC matches (a load may have multiple static dependences, section
// 4.4.4) and returns the extended slice.  dst is caller-owned: results are
// never invalidated by a later call.
//
//memdep:hotpath
func (t *MDPT) MatchesForLoad(loadPC uint64, dst []Prediction) []Prediction {
	if !t.loadFilter.mayHold(loadPC) {
		return dst
	}
	for _, i := range t.loadIdx[loadPC] {
		e := &t.entries[i]
		t.touch(e)
		dst = append(dst, t.prediction(e)) //lint:alloc-ok caller-owned scratch buffer, growth amortized
	}
	return dst
}

// MatchesForStore appends to dst the predictions of all valid entries whose
// store PC matches and returns the extended slice.  dst is caller-owned:
// results are never invalidated by a later call.
//
//memdep:hotpath
func (t *MDPT) MatchesForStore(storePC uint64, dst []Prediction) []Prediction {
	if !t.storeFilter.mayHold(storePC) {
		return dst
	}
	for _, i := range t.storeIdx[storePC] {
		e := &t.entries[i]
		t.touch(e)
		dst = append(dst, t.prediction(e)) //lint:alloc-ok caller-owned scratch buffer, growth amortized
	}
	return dst
}

// RecordMisspeculation allocates an entry for the pair (or strengthens an
// existing one).  dist is the dependence distance -- the difference between
// the load's and the store's instance numbers -- and storeTaskPC identifies
// the task that issued the store (used by ESYNC).
func (t *MDPT) RecordMisspeculation(pair PairKey, dist uint64, storeTaskPC uint64) {
	if e := t.find(pair); e != nil {
		e.dist = dist
		e.storeTaskPC = storeTaskPC
		t.strengthen(e)
		t.touch(e)
		return
	}
	i := t.victim(pair.LoadPC)
	e := &t.entries[i]
	if e.valid {
		t.unlink(i)
	}
	*e = mdptEntry{
		valid:       true,
		loadPC:      pair.LoadPC,
		storePC:     pair.StorePC,
		dist:        dist,
		counter:     t.cfg.initialCounter(),
		storeTaskPC: storeTaskPC,
	}
	t.link(i)
	t.touch(e)
}

// victim returns the slot to allocate into within the load's set: an invalid
// way if one exists, otherwise the least recently used way.  Instructions
// are word-aligned, so the low PC bits are dropped before the modulo to
// spread consecutive static loads across sets.
func (t *MDPT) victim(loadPC uint64) int32 {
	base := int((loadPC>>2)%uint64(t.sets)) * t.ways
	set := t.entries[base : base+t.ways]
	lru := 0
	for i := range set {
		if !set[i].valid {
			return int32(base + i)
		}
		if set[i].lastUse < set[lru].lastUse {
			lru = i
		}
	}
	return int32(base + lru)
}

func (t *MDPT) strengthen(e *mdptEntry) {
	if e.counter < t.cfg.counterMax() {
		e.counter++
	}
}

func (t *MDPT) weaken(e *mdptEntry) {
	if e.counter > 0 {
		e.counter--
	}
}

// Strengthen increases the confidence of the pair's entry (the predicted
// dependence turned out to exist).  Unknown pairs are ignored.
func (t *MDPT) Strengthen(pair PairKey) {
	if e := t.find(pair); e != nil {
		t.strengthen(e)
	}
}

// Weaken decreases the confidence of the pair's entry (the predicted
// dependence did not materialise, so the load was delayed unnecessarily).
// Unknown pairs are ignored.
func (t *MDPT) Weaken(pair PairKey) {
	if e := t.find(pair); e != nil {
		t.weaken(e)
	}
}

// Reset invalidates all entries.  Index maps are cleared in place (per-PC
// slices keep their backing capacity) so a reused table allocates nothing
// in steady state.
func (t *MDPT) Reset() {
	for i := range t.entries {
		t.entries[i] = mdptEntry{}
	}
	clear(t.pairIdx)
	for pc, s := range t.loadIdx { //lint:deterministic in-place clear, every key treated identically
		t.loadIdx[pc] = s[:0]
	}
	for pc, s := range t.storeIdx { //lint:deterministic in-place clear, every key treated identically
		t.storeIdx[pc] = s[:0]
	}
	clear(t.loadFilter)
	clear(t.storeFilter)
	t.clock = 0
}
