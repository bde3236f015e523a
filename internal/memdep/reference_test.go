package memdep

// The reference pair table: the MDPT of section 4.1 written as plainly as
// possible, with no index.  It is a slice of sets × ways slots; every lookup
// is a linear scan, and LRU is an explicit stamp taken from a clock that
// every touch advances.  FuzzMDPTAgainstReference drives MDPT and this table
// with the same operations and requires every answer to agree.
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
	stats      MDPTStats // LiveEntries is computed by Stats
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
		Counter:     e.counter,
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

func (r *refMDPT) Kind() TableKind { return r.cfg.Table }

func (r *refMDPT) Lookup(pair PairKey) (Prediction, bool) {
	if e := r.find(pair); e != nil {
		return r.prediction(e), true
	}
	return Prediction{}, false
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
	if e.valid {
		r.stats.Replacements++
	}
	r.stats.Allocations++
	*e = refSlot{valid: true, pair: pair, dist: dist, taskPC: storeTaskPC, counter: min(Threshold+1, r.counterMax())}
	r.touch(e)
}

func (r *refMDPT) Strengthen(pair PairKey) {
	if e := r.find(pair); e != nil {
		if e.counter < r.counterMax() {
			e.counter++
		}
		r.stats.Strengthens++
	}
}

func (r *refMDPT) Weaken(pair PairKey) {
	if e := r.find(pair); e != nil {
		if e.counter > 0 {
			e.counter--
		}
		r.stats.Weakens++
	}
}

func (r *refMDPT) Len() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].valid {
			n++
		}
	}
	return n
}

func (r *refMDPT) Capacity() int { return len(r.slots) }

func (r *refMDPT) Stats() MDPTStats {
	st := r.stats
	st.LiveEntries = r.Len()
	return st
}

func (r *refMDPT) Reset() {
	clear(r.slots)
	r.clock = 0
	r.stats = MDPTStats{}
}
