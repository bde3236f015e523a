package memdep

// DDC is the data dependence cache of section 5.3: a fully associative, LRU
// managed cache of static store→load pairs.  A DDC of size n records the
// dependences that caused the n most recent mis-speculations.  The paper uses
// DDC hit/miss rates to show that the static dependences responsible for
// mis-speculations are few and exhibit temporal locality (Tables 5 and 7).
//
//memdep:resettable
type DDC struct {
	capacity int //lint:reset-exempt cache capacity fixed at construction
	clock    uint64
	entries  map[PairKey]uint64 // pair -> last access time
	hits     uint64
	misses   uint64
}

// NewDDC creates a data dependence cache that can hold up to capacity static
// dependence pairs.  A capacity of zero or less creates a cache that always
// misses.
func NewDDC(capacity int) *DDC {
	if capacity < 0 {
		capacity = 0
	}
	return &DDC{
		capacity: capacity,
		entries:  make(map[PairKey]uint64, capacity),
	}
}

// Capacity returns the cache capacity in entries.
func (d *DDC) Capacity() int { return d.capacity }

// Access records a mis-speculation of the given static pair.  It returns true
// if the pair was already cached (a hit).  On a miss the pair is inserted,
// evicting the least recently used entry if the cache is full.
func (d *DDC) Access(pair PairKey) bool {
	d.clock++
	if _, ok := d.entries[pair]; ok {
		d.hits++
		d.entries[pair] = d.clock
		return true
	}
	d.misses++
	if d.capacity == 0 {
		return false
	}
	if len(d.entries) >= d.capacity {
		d.evictLRU()
	}
	d.entries[pair] = d.clock
	return false
}

// evictLRU removes the least recently used pair.  Access stamps every touch
// with a fresh clock value, so timestamps are unique in practice, but the
// victim must not depend on map iteration order: the explicit PairKey
// tie-break keeps eviction deterministic even if that invariant is ever
// relaxed.
func (d *DDC) evictLRU() {
	var victim PairKey
	oldest := uint64(1<<64 - 1)
	first := true
	for pair, when := range d.entries { //lint:deterministic strict min-reduction with PairKey tie-break
		if first || when < oldest || (when == oldest && pairKeyLess(pair, victim)) {
			first = false
			oldest = when
			victim = pair
		}
	}
	delete(d.entries, victim)
}

// pairKeyLess orders PairKeys by (LoadPC, StorePC); it is the eviction
// tie-break, not a semantic ordering.
func pairKeyLess(a, b PairKey) bool {
	if a.LoadPC != b.LoadPC {
		return a.LoadPC < b.LoadPC
	}
	return a.StorePC < b.StorePC
}

// Accesses returns the total number of accesses.
func (d *DDC) Accesses() uint64 { return d.hits + d.misses }

// MissRate returns misses divided by total accesses, as a fraction in [0,1].
// It returns 0 when there have been no accesses.
func (d *DDC) MissRate() float64 {
	total := d.Accesses()
	if total == 0 {
		return 0
	}
	return float64(d.misses) / float64(total)
}

// Reset clears the cache contents and counters in place, retaining the map's
// storage for reuse.
func (d *DDC) Reset() {
	clear(d.entries)
	d.hits, d.misses, d.clock = 0, 0, 0
}
