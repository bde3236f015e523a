package cache

import (
	"testing"
	"testing/quick"
)

func TestSetAssocGeometry(t *testing.T) {
	c := MustNewSetAssoc(8*1024, 1, 64)
	if c.sets != 128 || c.ways != 1 || blockSize(c) != 64 {
		t.Errorf("geometry = %d sets, %d ways, %d block", c.sets, c.ways, blockSize(c))
	}
	c2 := MustNewSetAssoc(32*1024, 2, 64)
	if c2.sets != 256 || c2.ways != 2 {
		t.Errorf("geometry = %d sets, %d ways", c2.sets, c2.ways)
	}
}

func TestNewSetAssocErrors(t *testing.T) {
	if _, err := NewSetAssoc(0, 1, 64); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := NewSetAssoc(1024, 1, 60); err == nil {
		t.Error("non-power-of-two block must fail")
	}
	if _, err := NewSetAssoc(100, 3, 64); err == nil {
		t.Error("indivisible size must fail")
	}
}

func TestMustNewSetAssocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewSetAssoc(0, 0, 0)
}

func TestSetAssocHitMiss(t *testing.T) {
	c := MustNewSetAssoc(1024, 1, 64)
	if c.Access(0x100) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x100) {
		t.Error("second access must hit")
	}
	if !c.Access(0x13f) {
		t.Error("same block must hit")
	}
	if c.Access(0x140) {
		t.Error("next block must miss")
	}
	if c.hits != 2 || c.misses != 2 {
		t.Errorf("hits/misses = %d/%d", c.hits, c.misses)
	}
}

func TestSetAssocConflictDirectMapped(t *testing.T) {
	c := MustNewSetAssoc(1024, 1, 64) // 16 sets
	a := uint64(0x0000)
	b := uint64(0x0000 + 1024) // same set, different tag
	c.Access(a)
	c.Access(b) // evicts a
	if present(c, a) {
		t.Error("direct-mapped conflict must evict the old block")
	}
	if !present(c, b) {
		t.Error("newly inserted block must be present")
	}
}

func TestSetAssocTwoWayAvoidsConflict(t *testing.T) {
	c := MustNewSetAssoc(2048, 2, 64)
	a := uint64(0x0000)
	b := a + uint64(c.sets*blockSize(c))
	c.Access(a)
	c.Access(b)
	if !present(c, a) || !present(c, b) {
		t.Error("two-way cache must hold both conflicting blocks")
	}
	// A third conflicting block evicts the LRU (a).
	d := a + 2*uint64(c.sets*blockSize(c))
	c.Access(a) // touch a so b becomes LRU
	c.Access(d)
	if present(c, b) {
		t.Error("LRU block must be evicted")
	}
	if !present(c, a) {
		t.Error("recently used block must survive")
	}
}

func TestSetAssocReset(t *testing.T) {
	c := MustNewSetAssoc(1024, 1, 64)
	c.Access(0x100)
	c.Reset()
	if present(c, 0x100) || c.hits != 0 || c.misses != 0 {
		t.Error("reset must clear contents and counters")
	}
}

// Property: the number of cached blocks never exceeds sets*ways, and a block
// just accessed is always present.
func TestSetAssocInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNewSetAssoc(512, 2, 64)
		for _, a := range addrs {
			addr := uint64(a)
			c.Access(addr)
			if !present(c, addr) {
				return false
			}
		}
		return c.hits+c.misses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusSerialisesTransfers(t *testing.T) {
	b := NewBus(4)
	if got := b.Acquire(10); got != 10 {
		t.Errorf("first transfer starts at %d, want 10", got)
	}
	if got := b.Acquire(11); got != 14 {
		t.Errorf("second transfer starts at %d, want 14 (queued)", got)
	}
	if got := b.Acquire(100); got != 100 {
		t.Errorf("late transfer starts at %d, want 100", got)
	}
	if b.Transfers() != 3 {
		t.Errorf("transfers = %d", b.Transfers())
	}
	if b.TotalWait() != 3 {
		t.Errorf("total wait = %d, want 3", b.TotalWait())
	}
	b.Reset()
	if b.Transfers() != 0 || b.TotalWait() != 0 {
		t.Error("reset must clear counters")
	}
}

func TestBusOccupancyClamp(t *testing.T) {
	b := NewBus(0)
	b.Acquire(0)
	if got := b.Acquire(0); got != 1 {
		t.Errorf("occupancy must clamp to 1, second start = %d", got)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	h := NewHierarchy(8)
	ic := h.icache[0]
	if size := ic.sets * ic.ways * blockSize(ic); size != 32*1024 || ic.ways != 2 || blockSize(ic) != 64 {
		t.Errorf("icache = %d bytes, %d ways, %d-byte blocks", size, ic.ways, blockSize(ic))
	}
	db := h.dbanks[0]
	if size := db.sets * db.ways * blockSize(db); size != 8*1024 || db.ways != 1 || blockSize(db) != 64 {
		t.Errorf("dbank = %d bytes, %d ways, %d-byte blocks", size, db.ways, blockSize(db))
	}
	if dHitLatency != 2 || iHitLatency != 1 {
		t.Errorf("hit latencies = %d data, %d instruction", dHitLatency, iHitLatency)
	}
	if len(NewHierarchy(0).icache) != 1 {
		t.Error("units must clamp to 1")
	}
}

func TestHierarchyBankCount(t *testing.T) {
	h := NewHierarchy(4)
	if len(h.dbanks) != 8 {
		t.Errorf("banks = %d, want 8 (twice the units)", len(h.dbanks))
	}
	h8 := NewHierarchy(8)
	if len(h8.dbanks) != 16 {
		t.Errorf("banks = %d, want 16", len(h8.dbanks))
	}
}

func TestHierarchyDataHitAndMissLatency(t *testing.T) {
	h := NewHierarchy(4)
	// Cold access: miss.
	missDone := h.DataAccess(0x1000, 100)
	if missDone < 100+dHitLatency+missPenalty {
		t.Errorf("miss completes at %d, too early", missDone)
	}
	// Warm access to the same block: hit at hit latency.
	hitDone := h.DataAccess(0x1008, 200)
	if hitDone != 200+dHitLatency {
		t.Errorf("hit completes at %d, want %d", hitDone, 200+dHitLatency)
	}
	st := h.Stats()
	if st.DataAccesses != 2 || st.DataMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHierarchyBankConflictSerialises(t *testing.T) {
	h := NewHierarchy(4)
	// Warm up two addresses mapping to the same bank (same block).
	h.DataAccess(0x2000, 0)
	done1 := h.DataAccess(0x2000, 100)
	done2 := h.DataAccess(0x2008, 100) // same bank, same cycle
	if done2 <= done1 {
		t.Errorf("bank conflict must serialise: %d vs %d", done1, done2)
	}
}

func TestHierarchyDifferentBanksParallel(t *testing.T) {
	h := NewHierarchy(4)
	// Warm both blocks.
	h.DataAccess(0x2000, 0)
	h.DataAccess(0x2040, 0) // next block, next bank
	d1 := h.DataAccess(0x2000, 100)
	d2 := h.DataAccess(0x2040, 100)
	if d1 != d2 {
		t.Errorf("independent banks must serve in parallel: %d vs %d", d1, d2)
	}
}

func TestHierarchyInstrFetch(t *testing.T) {
	h := NewHierarchy(2)
	missDone := h.InstrFetch(0, 0x400, 10)
	if missDone <= 10+iHitLatency {
		t.Errorf("instruction miss completes at %d, too early", missDone)
	}
	hitDone := h.InstrFetch(0, 0x404, 50)
	if hitDone != 50+iHitLatency {
		t.Errorf("instruction hit completes at %d", hitDone)
	}
	// A different unit has its own instruction cache: same PC misses again.
	otherDone := h.InstrFetch(1, 0x404, 50)
	if otherDone == hitDone {
		t.Error("per-unit instruction caches must be independent")
	}
	st := h.Stats()
	if st.InstrAccesses != 3 || st.InstrMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(2)
	h.DataAccess(0x100, 0)
	h.InstrFetch(0, 0x200, 0)
	h.Reset()
	st := h.Stats()
	if st.DataAccesses != 0 || st.InstrAccesses != 0 || st.BusTransfers != 0 {
		t.Errorf("reset must clear stats: %+v", st)
	}
}

// Property: access completion time is never before the request time plus the
// hit latency, and the access counters always balance.
func TestHierarchyCompletionLowerBound(t *testing.T) {
	f := func(addrs []uint16) bool {
		h := NewHierarchy(2)
		now := int64(0)
		for _, a := range addrs {
			addr := uint64(a%256) * 8
			done := h.DataAccess(addr, now)
			if done < now+dHitLatency {
				return false
			}
			now += 2
		}
		st := h.Stats()
		return st.DataAccesses == uint64(len(addrs)) && st.DataMisses <= st.DataAccesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// blockSize is the cache's block size in bytes.
func blockSize(c *SetAssoc) int { return 1 << c.blockBits }

// present reports whether the block containing addr is cached, without
// touching LRU state or counters.
func present(c *SetAssoc, addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.tags[set*c.ways : (set+1)*c.ways] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}
