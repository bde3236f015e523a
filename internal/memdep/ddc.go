package memdep

// DDC is the data dependence cache of section 5.3: a fully associative, LRU
// managed cache of static store→load pairs.  A DDC of size n records the
// dependences that caused the n most recent mis-speculations.  The paper uses
// DDC hit/miss rates to show that the static dependences responsible for
// mis-speculations are few and exhibit temporal locality (Tables 5 and 7).
//
// The cached pairs live in slots, found through hash chains and threaded
// into one LRU list, so an access hashes no Go map and a miss evicts the
// list head without a scan.  There are as many hash buckets as slots, and
// slot b's bucket field heads bucket b's chain, so the buckets need no
// allocation of their own.
//
//memdep:resettable
type DDC struct {
	capacity int //lint:reset-exempt cache capacity fixed at construction
	// slots[:used] hold the cached pairs; a cache that has not filled yet
	// takes the next slot, a full one recycles the LRU head's.
	slots  []ddcSlot
	used   int32
	links  []link //lint:reset-exempt overwritten before every read: a slot is linked when it is filled
	lru    list
	hits   uint64
	misses uint64
}

// ddcSlot is one cached pair, the next slot in its hash chain, and the head
// of the chain of the bucket numbered like the slot.
type ddcSlot struct {
	pair     PairKey
	hashNext int32
	bucket   int32
}

// NewDDC creates a data dependence cache that can hold up to capacity static
// dependence pairs.  A capacity of zero or less creates a cache that always
// misses.
func NewDDC(capacity int) *DDC {
	capacity = max(capacity, 0)
	d := &DDC{
		capacity: capacity,
		slots:    make([]ddcSlot, capacity),
		links:    make([]link, capacity),
	}
	d.Reset()
	return d
}

// Capacity returns the cache capacity in entries.
func (d *DDC) Capacity() int { return d.capacity }

// bucket returns the head of the pair's hash chain.
func (d *DDC) bucket(pair PairKey) *int32 {
	h := (pair.LoadPC*0x9e3779b97f4a7c15 + pair.StorePC*0xc2b2ae3d27d4eb4f) >> 32
	return &d.slots[h*uint64(d.capacity)>>32].bucket
}

// Access records a mis-speculation of the given static pair.  It returns true
// if the pair was already cached (a hit).  On a miss the pair is inserted,
// evicting the least recently used entry if the cache is full.
func (d *DDC) Access(pair PairKey) bool {
	if d.capacity == 0 {
		d.misses++
		return false
	}
	b := d.bucket(pair)
	for i := *b; i != noSlot; i = d.slots[i].hashNext {
		if d.slots[i].pair == pair {
			d.hits++
			d.lru.moveToBack(d.links, i)
			return true
		}
	}
	d.misses++
	i := d.used
	if int(i) < d.capacity {
		d.used++
	} else {
		i = d.lru.head
		d.lru.remove(d.links, i)
		p := d.bucket(d.slots[i].pair)
		for *p != i {
			p = &d.slots[*p].hashNext
		}
		*p = d.slots[i].hashNext
	}
	d.slots[i].pair, d.slots[i].hashNext = pair, *b
	*b = i
	d.lru.pushBack(d.links, i)
	return false
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

// Reset clears the cache contents and counters in place, retaining the
// slots' storage for reuse.
func (d *DDC) Reset() {
	for i := range d.slots {
		d.slots[i].bucket = noSlot
	}
	d.used = 0
	d.lru = emptyList
	d.hits, d.misses = 0, 0
}
