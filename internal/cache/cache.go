// Package cache models the memory hierarchy of the simulated Multiscalar
// processor: per-processing-unit instruction caches, a banked, interleaved
// data cache shared by all units through a crossbar, and the single
// split-transaction memory bus they contend for.  The structural parameters
// are the configuration of section 5.2 of the paper; only the number of
// processing units varies.
//
// The models are timing models: they answer "at which cycle does this access
// complete" and keep hit/miss statistics.  Data values are irrelevant (the
// functional simulator in internal/trace is the reference for values).
package cache

import "fmt"

// SetAssoc is a set-associative cache tag array with LRU replacement.  It
// tracks presence of block addresses only.
//
//memdep:resettable
type SetAssoc struct {
	sets      int  //lint:reset-exempt cache geometry fixed at construction
	ways      int  //lint:reset-exempt cache geometry fixed at construction
	blockBits uint //lint:reset-exempt cache geometry fixed at construction
	clock     uint64
	// tags is one flat backing array of sets*ways entries (row-major by
	// set), allocated in a single shot so constructing a hierarchy costs a
	// handful of allocations rather than one per set.
	tags []tagEntry

	hits   uint64
	misses uint64
}

type tagEntry struct {
	valid   bool
	tag     uint64
	lastUse uint64
}

// NewSetAssoc constructs a cache with the given total size, associativity and
// block size (all in bytes).  Size must be a multiple of ways*blockSize.
func NewSetAssoc(sizeBytes, ways, blockSize int) (*SetAssoc, error) {
	if sizeBytes <= 0 || ways <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry (%d,%d,%d)", sizeBytes, ways, blockSize)
	}
	if blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d is not a power of two", blockSize)
	}
	sets := sizeBytes / (ways * blockSize)
	if sets <= 0 || sizeBytes%(ways*blockSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte blocks",
			sizeBytes, ways, blockSize)
	}
	blockBits := uint(0)
	for 1<<blockBits < blockSize {
		blockBits++
	}
	c := &SetAssoc{sets: sets, ways: ways, blockBits: blockBits}
	c.tags = make([]tagEntry, sets*ways)
	return c, nil
}

// MustNewSetAssoc is like NewSetAssoc but panics on error (for fixed
// configurations).
func MustNewSetAssoc(sizeBytes, ways, blockSize int) *SetAssoc {
	c, err := NewSetAssoc(sizeBytes, ways, blockSize)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *SetAssoc) index(addr uint64) (set int, tag uint64) {
	block := addr >> c.blockBits
	return int(block % uint64(c.sets)), block / uint64(c.sets)
}

// Access looks up the block containing addr, allocating it on a miss (and
// evicting the LRU way if necessary).  It returns true on a hit.
func (c *SetAssoc) Access(addr uint64) bool {
	c.clock++
	set, tag := c.index(addr)
	ways := c.tags[set*c.ways : (set+1)*c.ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lastUse = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	ways[victim] = tagEntry{valid: true, tag: tag, lastUse: c.clock}
	return false
}

// Misses returns the number of misses so far.
func (c *SetAssoc) Misses() uint64 { return c.misses }

// Reset clears contents and statistics.
func (c *SetAssoc) Reset() {
	for i := range c.tags {
		c.tags[i] = tagEntry{}
	}
	c.clock, c.hits, c.misses = 0, 0, 0
}
