package memdep

import (
	"cmp"
	"fmt"
	"slices"
)

// The reference pair table: the MDPT of section 4.1 written as plainly as
// possible, with no index.  It is a slice of sets × ways slots; every lookup
// is a linear scan, and LRU is an explicit stamp taken from a clock that
// every touch advances.  FuzzMDPTAgainstReference drives MDPT and this table
// with the same operations and requires every answer, and the two tables'
// entries, to agree after every step.
//
// The paper's table is fully associative: one set holding every slot.  The
// set-associative organization splits the slots into Entries/Ways sets and
// indexes them by the word address of the load PC, (loadPC>>2) % sets.  An
// entry lives in its load's set, so finding a pair and matching a load scan
// that set; a store may pair with loads in any set, so matching a store
// scans the whole table.  Scans run in ascending slot order, and each match
// is touched as it is found.  A new pair takes the first invalid slot of its
// set, else the set's least recently touched one.

// refSlot is one slot of the reference table.
type refSlot struct {
	valid   bool
	pair    PairKey
	dist    uint64
	taskPC  uint64 // PC of the task that issued the store (ESYNC)
	counter int
	stamp   uint64 // clock value at the last touch
}

// refMDPT is the reference pair table.
type refMDPT struct {
	cfg        Config
	sets, ways int
	slots      []refSlot
	clock      uint64
}

var _ Predictor = (*refMDPT)(nil)

// newRefMDPT builds the table cfg describes: one set of Entries slots, or
// Entries/Ways sets of Ways slots for TableSetAssoc.
func newRefMDPT(cfg Config) *refMDPT {
	cfg = cfg.withDefaults()
	r := &refMDPT{cfg: cfg, sets: 1, ways: cfg.Entries}
	if cfg.Table == TableSetAssoc {
		r.sets, r.ways = cfg.Entries/cfg.Ways, cfg.Ways
	}
	r.slots = make([]refSlot, r.sets*r.ways)
	return r
}

// set returns the slots of the load's set.
func (r *refMDPT) set(loadPC uint64) []refSlot {
	s := int((loadPC >> 2) % uint64(r.sets))
	return r.slots[s*r.ways : (s+1)*r.ways]
}

func (r *refMDPT) touch(e *refSlot) {
	r.clock++
	e.stamp = r.clock
}

// counterMax is the saturation value of a CounterBits-wide counter.
func (r *refMDPT) counterMax() int { return 1<<r.cfg.CounterBits - 1 }

func (r *refMDPT) prediction(e *refSlot) Prediction {
	return Prediction{
		Pair:        e.pair,
		Dist:        e.dist,
		StoreTaskPC: e.taskPC,
		Sync:        r.cfg.Predictor == PredictAlways || e.counter >= Threshold,
	}
}

// find returns the pair's slot, or nil.
func (r *refMDPT) find(pair PairKey) *refSlot {
	set := r.set(pair.LoadPC)
	for i := range set {
		if set[i].valid && set[i].pair == pair {
			return &set[i]
		}
	}
	return nil
}

func (r *refMDPT) MatchesForLoad(loadPC uint64, dst []Prediction) []Prediction {
	set := r.set(loadPC)
	for i := range set {
		if e := &set[i]; e.valid && e.pair.LoadPC == loadPC {
			r.touch(e)
			dst = append(dst, r.prediction(e))
		}
	}
	return dst
}

func (r *refMDPT) MatchesForStore(storePC uint64, dst []Prediction) []Prediction {
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && e.pair.StorePC == storePC {
			r.touch(e)
			dst = append(dst, r.prediction(e))
		}
	}
	return dst
}

func (r *refMDPT) RecordMisspeculation(pair PairKey, dist uint64, storeTaskPC uint64) {
	if e := r.find(pair); e != nil {
		e.dist, e.taskPC = dist, storeTaskPC
		r.Strengthen(pair)
		r.touch(e)
		return
	}
	set := r.set(pair.LoadPC)
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
	}
	e := &set[victim]
	*e = refSlot{valid: true, pair: pair, dist: dist, taskPC: storeTaskPC, counter: min(Threshold+1, r.counterMax())}
	r.touch(e)
}

func (r *refMDPT) Strengthen(pair PairKey) {
	if e := r.find(pair); e != nil {
		if e.counter < r.counterMax() {
			e.counter++
		}
	}
}

func (r *refMDPT) Weaken(pair PairKey) {
	if e := r.find(pair); e != nil {
		if e.counter > 0 {
			e.counter--
		}
	}
}

func (r *refMDPT) Reset() {
	clear(r.slots)
	r.clock = 0
}

// entryState is the state one valid entry holds for a static pair.
type entryState struct {
	Dist        uint64
	Counter     int
	StoreTaskPC uint64
}

// tableState snapshots the valid entries of a prediction table, pair →
// state.  A store set holds every pair of one of its loads with one of its
// stores, at the store member's distance and task PC and the set's counter.
// Tests read the tables through it, so the tables export only what System
// calls.
func tableState(p Predictor) map[PairKey]entryState {
	out := map[PairKey]entryState{}
	switch t := p.(type) {
	case *MDPT:
		for _, e := range t.entries {
			if e.valid {
				out[PairKey{LoadPC: e.loadPC, StorePC: e.storePC}] = entryState{e.dist, e.counter, e.storeTaskPC}
			}
		}
	case *StoreSetPredictor:
		for _, s := range t.sets {
			if !s.valid {
				continue
			}
			for _, ld := range s.loads {
				for _, st := range s.stores {
					out[PairKey{LoadPC: ld.pc, StorePC: st.pc}] = entryState{st.dist, s.counter, st.storeTaskPC}
				}
			}
		}
	case *refMDPT:
		for _, e := range t.slots {
			if e.valid {
				out[e.pair] = entryState{e.dist, e.counter, e.taskPC}
			}
		}
	default:
		panic(fmt.Sprintf("tableState: unknown table %T", p))
	}
	return out
}

// lookup returns the state of the pair's entry, if the table holds one.
func lookup(p Predictor, pair PairKey) (entryState, bool) {
	e, ok := tableState(p)[pair]
	return e, ok
}

// liveEntries counts the valid entries of a pair table or the valid sets of
// a store-set table.
func liveEntries(p Predictor) int {
	if t, ok := p.(*StoreSetPredictor); ok {
		n := 0
		for i := range t.sets {
			if t.sets[i].valid {
				n++
			}
		}
		return n
	}
	return len(tableState(p))
}

// tableKind reports the organization a table was built as.
func tableKind(p Predictor) TableKind {
	switch t := p.(type) {
	case *MDPT:
		return t.cfg.Table
	case *StoreSetPredictor:
		return t.cfg.Table
	}
	panic(fmt.Sprintf("tableKind: unknown table %T", p))
}

// capacity is the number of entries of a pair table or sets of a store-set
// table.
func capacity(p Predictor) int {
	switch t := p.(type) {
	case *MDPT:
		return len(t.entries)
	case *StoreSetPredictor:
		return len(t.sets)
	case *refMDPT:
		return len(t.slots)
	}
	panic(fmt.Sprintf("capacity: unknown table %T", p))
}

// The reference synchronization table: the MDST of section 4.2, with the
// reclamation and squash rules of sections 4.4.2 and 4.4.3, written as
// plainly as possible.  It is a slice of slots; every lookup and release is
// a linear scan in slot order, and LRU is an explicit stamp taken from a
// clock that every touch advances.  FuzzMDSTAgainstReference drives MDST and
// this table with the same operations and requires every answer, and the
// two tables' entries, to agree after every step.
//
// A dynamic instance (load PC, store PC, instance) has at most one valid
// slot.  A new entry takes the first invalid slot, else the least recently
// touched full slot (a signal waiting for its load), else the least
// recently touched slot.  A waiting (empty) slot records its load's LDID, a
// full one its store's STID.

// refSync is one slot of the reference table.
type refSync struct {
	valid    bool
	pair     PairKey
	instance uint64
	ldid     int64
	stid     int64
	full     bool
	stamp    uint64 // clock value at the last touch
}

// refMDST is the reference synchronization table.
type refMDST struct {
	slots []refSync
	clock uint64
}

func newRefMDST(capacity int) *refMDST {
	return &refMDST{slots: make([]refSync, max(capacity, 1))}
}

func (r *refMDST) touch(e *refSync) {
	r.clock++
	e.stamp = r.clock
}

// find returns the instance's slot, or nil.
func (r *refMDST) find(pair PairKey, instance uint64) *refSync {
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && e.pair == pair && e.instance == instance {
			return e
		}
	}
	return nil
}

// install fills the first invalid slot, else the least recently touched full
// slot, else the least recently touched slot.
func (r *refMDST) install(fill refSync) {
	victim := -1
	for i := range r.slots {
		if !r.slots[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = r.lru(true)
	}
	if victim < 0 {
		victim = r.lru(false)
	}
	r.slots[victim] = fill
	r.touch(&r.slots[victim])
}

// lru returns the least recently touched valid slot, full ones only if
// onlyFull is set, or -1.
func (r *refMDST) lru(onlyFull bool) int {
	v := -1
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && (e.full || !onlyFull) && (v < 0 || e.stamp < r.slots[v].stamp) {
			v = i
		}
	}
	return v
}

func (r *refMDST) AllocWaiting(pair PairKey, instance uint64, ldid int64) bool {
	if e := r.find(pair, instance); e != nil {
		r.touch(e)
		if e.full {
			e.valid = false
			return false
		}
		e.ldid = ldid
		return true
	}
	r.install(refSync{valid: true, pair: pair, instance: instance, ldid: ldid, stid: invalidID})
	return true
}

func (r *refMDST) Signal(pair PairKey, instance uint64, stid int64) (int64, bool) {
	if e := r.find(pair, instance); e != nil {
		r.touch(e)
		if !e.full && e.ldid != invalidID {
			e.valid = false
			return e.ldid, true
		}
		e.stid = stid
		return invalidID, false
	}
	r.install(refSync{valid: true, pair: pair, instance: instance, ldid: invalidID, stid: stid, full: true})
	return invalidID, false
}

func (r *refMDST) ReleaseLoad(ldid int64) []PairKey {
	var freed []PairKey
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && e.ldid == ldid {
			freed = append(freed, e.pair)
			e.valid = false
		}
	}
	return freed
}

func (r *refMDST) ReleaseStore(stid int64) []PairKey {
	var freed []PairKey
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && e.stid == stid && e.ldid == invalidID {
			freed = append(freed, e.pair)
			e.valid = false
		}
	}
	return freed
}

func (r *refMDST) HasWaiter(ldid int64) bool {
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && !e.full && e.ldid == ldid {
			return true
		}
	}
	return false
}

func (r *refMDST) Reset() {
	clear(r.slots)
	r.clock = 0
}

// syncState is what one valid synchronization entry holds.
type syncState struct {
	Pair       PairKey
	Instance   uint64
	LDID, STID int64
	Full       bool
}

// syncEntries lists the valid entries of a synchronization table, least
// recently used first within each kind, waiting entries before full ones:
// equal lists mean equal entries and equal replacement order.
func syncEntries(table any) []syncState {
	var out []syncState
	switch t := table.(type) {
	case *MDST:
		for _, l := range t.lru {
			for i := l.head; i != noSlot; i = t.lruLinks[i].next {
				e := &t.entries[i]
				out = append(out, syncState{PairKey{LoadPC: e.loadPC, StorePC: e.storePC}, e.instance, e.ldid, e.stid, e.full})
			}
		}
	case *refMDST:
		live := slices.DeleteFunc(slices.Clone(t.slots), func(e refSync) bool { return !e.valid })
		slices.SortFunc(live, func(a, b refSync) int {
			if a.full != b.full {
				if a.full {
					return 1
				}
				return -1
			}
			return cmp.Compare(a.stamp, b.stamp)
		})
		for _, e := range live {
			out = append(out, syncState{e.pair, e.instance, e.ldid, e.stid, e.full})
		}
	default:
		panic(fmt.Sprintf("syncEntries: unknown table %T", table))
	}
	return out
}
