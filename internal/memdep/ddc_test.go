package memdep

import (
	"testing"
	"testing/quick"
)

func TestDDCBasicHitMiss(t *testing.T) {
	d := NewDDC(2)
	a := PairKey{LoadPC: 0x100, StorePC: 0x200}
	b := PairKey{LoadPC: 0x104, StorePC: 0x204}
	c := PairKey{LoadPC: 0x108, StorePC: 0x208}

	if d.Access(a) {
		t.Error("first access to a must miss")
	}
	if !d.Access(a) {
		t.Error("second access to a must hit")
	}
	if d.Access(b) {
		t.Error("first access to b must miss")
	}
	// a and b cached; c evicts the LRU (a, since b was touched more recently).
	if d.Access(c) {
		t.Error("first access to c must miss")
	}
	if cached(d, a) {
		t.Error("a should have been evicted")
	}
	if !cached(d, b) || !cached(d, c) {
		t.Error("b and c should be cached")
	}
	if d.hits != 1 || d.misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", d.hits, d.misses)
	}
	if got := d.MissRate(); got != 0.75 {
		t.Errorf("miss rate = %v, want 0.75", got)
	}
}

func TestDDCLRUOrderRespectsAccesses(t *testing.T) {
	d := NewDDC(2)
	a := PairKey{LoadPC: 1}
	b := PairKey{LoadPC: 2}
	c := PairKey{LoadPC: 3}
	d.Access(a)
	d.Access(b)
	d.Access(a) // touch a; b becomes LRU
	d.Access(c) // evicts b
	if !cached(d, a) {
		t.Error("a must survive (recently used)")
	}
	if cached(d, b) {
		t.Error("b must be evicted")
	}
}

func TestDDCZeroCapacity(t *testing.T) {
	d := NewDDC(0)
	p := PairKey{LoadPC: 1}
	for i := 0; i < 5; i++ {
		if d.Access(p) {
			t.Fatal("zero-capacity DDC must always miss")
		}
	}
	if d.MissRate() != 1 {
		t.Errorf("miss rate = %v, want 1", d.MissRate())
	}
	if int(d.used) != 0 {
		t.Errorf("len = %d, want 0", int(d.used))
	}
}

func TestDDCNegativeCapacityClamped(t *testing.T) {
	d := NewDDC(-5)
	if d.Capacity() != 0 {
		t.Errorf("capacity = %d, want 0", d.Capacity())
	}
}

func TestDDCMissRateEmptyCache(t *testing.T) {
	d := NewDDC(4)
	if d.MissRate() != 0 {
		t.Error("miss rate of untouched cache must be 0")
	}
}

func TestDDCReset(t *testing.T) {
	d := NewDDC(4)
	d.Access(PairKey{LoadPC: 1})
	d.Access(PairKey{LoadPC: 1})
	d.Reset()
	if int(d.used) != 0 || d.hits != 0 || d.misses != 0 {
		t.Error("reset must clear contents and counters")
	}
}

// Property: the number of cached pairs never exceeds the capacity, and hits +
// misses equals the number of accesses.
func TestDDCInvariants(t *testing.T) {
	f := func(capacity uint8, accesses []uint16) bool {
		cap := int(capacity%32) + 1
		d := NewDDC(cap)
		for _, a := range accesses {
			// Draw from a small space of pairs to get both hits and misses.
			d.Access(PairKey{LoadPC: uint64(a % 64), StorePC: uint64(a % 16)})
			if int(d.used) > cap {
				return false
			}
		}
		return d.hits+d.misses == uint64(len(accesses))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a DDC with capacity >= number of distinct pairs never misses
// after the first access to each pair (full associativity, LRU never evicts a
// live pair when there is room).
func TestDDCCompulsoryMissesOnly(t *testing.T) {
	f := func(accesses []uint8) bool {
		d := NewDDC(256)
		distinct := map[PairKey]bool{}
		for _, a := range accesses {
			pair := PairKey{LoadPC: uint64(a)}
			hit := d.Access(pair)
			if distinct[pair] && !hit {
				return false // non-compulsory miss
			}
			if !distinct[pair] && hit {
				return false // impossible hit
			}
			distinct[pair] = true
		}
		return d.misses == uint64(len(distinct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a larger DDC never has more misses than a smaller one on the same
// access stream (LRU inclusion property for full associativity).
func TestDDCMonotoneInCapacity(t *testing.T) {
	f := func(accesses []uint8) bool {
		small := NewDDC(8)
		large := NewDDC(64)
		for _, a := range accesses {
			pair := PairKey{LoadPC: uint64(a % 32), StorePC: uint64(a % 8)}
			small.Access(pair)
			large.Access(pair)
		}
		return large.misses <= small.misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDDCEvictionTieBreakDeterministic pins that eviction never depends on
// pair order or on map iteration order.  The LRU list orders every cached
// pair by recency, so no two pairs tie: a cache filled in descending pair
// order and touched out of order must evict in exactly the recency order,
// in every trial.
func TestDDCEvictionTieBreakDeterministic(t *testing.T) {
	pairs := []PairKey{
		{LoadPC: 0x300, StorePC: 0x30},
		{LoadPC: 0x100, StorePC: 0x20},
		{LoadPC: 0x100, StorePC: 0x10},
	}
	for trial := 0; trial < 32; trial++ {
		d := NewDDC(3)
		for _, p := range pairs {
			d.Access(p)
		}
		d.Access(pairs[0]) // recency, oldest first: pairs[1], pairs[2], pairs[0]
		for k, victim := range []PairKey{pairs[1], pairs[2], pairs[0]} {
			// The cache is full; the next miss evicts exactly the LRU pair.
			if d.Access(PairKey{LoadPC: 0x400 + uint64(k), StorePC: 0x40}) {
				t.Fatal("new pair must miss")
			}
			if cached(d, victim) {
				t.Fatalf("trial %d, miss %d: the least recently used pair %v must be the victim", trial, k, victim)
			}
		}
	}
}

// cached reports whether the pair is in the cache, without touching its LRU
// state or counters.
func cached(d *DDC, pair PairKey) bool {
	for _, s := range d.slots[:d.used] {
		if s.pair == pair {
			return true
		}
	}
	return false
}
