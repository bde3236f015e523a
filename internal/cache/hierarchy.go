package cache

// The memory hierarchy of section 5.2 of the paper.
const (
	// BlockSize is the block size of the instruction caches and the data
	// banks, in bytes.
	BlockSize = 64
	// Each processing unit has a 32 KB, 2-way instruction cache.
	icacheSize, icacheWays = 32 * 1024, 2
	// The data cache has two 8 KB direct-mapped banks per unit.
	dbankSize, dbankWays = 8 * 1024, 1
	// iHitLatency and dHitLatency are the instruction and data hit times.
	iHitLatency, dHitLatency = 1, 2
	// missPenalty is the latency of a miss after it wins the bus (10+3
	// cycles).
	missPenalty = 13
	// busOccupancy is the number of cycles a miss occupies the shared bus:
	// one transfer on the 4-word split-transaction bus.
	busOccupancy = 4
)

// Bus models the single split-transaction memory bus: each miss occupies it
// for a fixed number of cycles, and requests queue behind one another.
//
//memdep:resettable
type Bus struct {
	occupancy int64 //lint:reset-exempt transfer latency fixed at construction
	nextFree  int64
	transfers uint64
	waitTotal uint64
}

// NewBus creates a bus whose transfers occupy the given number of cycles.
func NewBus(occupancy int) *Bus {
	if occupancy < 1 {
		occupancy = 1
	}
	return &Bus{occupancy: int64(occupancy)}
}

// Acquire schedules a transfer requested at cycle `now` and returns the cycle
// at which the transfer begins (>= now).
func (b *Bus) Acquire(now int64) int64 {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.waitTotal += uint64(start - now)
	b.nextFree = start + b.occupancy
	b.transfers++
	return start
}

// Transfers returns the number of transfers performed.
func (b *Bus) Transfers() uint64 { return b.transfers }

// TotalWait returns the total number of cycles requests spent queued.
func (b *Bus) TotalWait() uint64 { return b.waitTotal }

// Reset clears the bus state.
func (b *Bus) Reset() { b.nextFree, b.transfers, b.waitTotal = 0, 0, 0 }

// Hierarchy bundles the per-unit instruction caches, the shared banked data
// cache and the memory bus, and answers timing queries.
//
//memdep:resettable
type Hierarchy struct {
	icache []*SetAssoc
	dbanks []*SetAssoc
	// bankFree is the next cycle at which each data bank can accept an
	// access (banks serve one access per cycle).
	bankFree []int64
	bus      *Bus

	iAccesses uint64
	dAccesses uint64
	bankWait  uint64
}

// NewHierarchy builds the memory hierarchy for the given number of
// processing units (at least one).
func NewHierarchy(units int) *Hierarchy {
	units = max(units, 1)
	h := &Hierarchy{bus: NewBus(busOccupancy)}
	for i := 0; i < units; i++ {
		h.icache = append(h.icache, MustNewSetAssoc(icacheSize, icacheWays, BlockSize))
	}
	banks := 2 * units
	for i := 0; i < banks; i++ {
		h.dbanks = append(h.dbanks, MustNewSetAssoc(dbankSize, dbankWays, BlockSize))
		h.bankFree = append(h.bankFree, 0)
	}
	return h
}

// bank selects the data bank serving addr (interleaved on block address).
func (h *Hierarchy) bank(addr uint64) int {
	return int((addr / BlockSize) % uint64(len(h.dbanks)))
}

// InstrFetch models an instruction fetch by the given unit at cycle now and
// returns the cycle at which the instruction is available.
func (h *Hierarchy) InstrFetch(unit int, pc uint64, now int64) int64 {
	h.iAccesses++
	c := h.icache[unit%len(h.icache)]
	if c.Access(pc) {
		return now + iHitLatency
	}
	start := h.bus.Acquire(now + iHitLatency)
	return start + missPenalty
}

// DataAccess models a load or store by any unit at cycle now and returns the
// cycle at which the access completes.  Stores complete when they reach the
// bank; loads complete when the data returns.
func (h *Hierarchy) DataAccess(addr uint64, now int64) int64 {
	h.dAccesses++
	b := h.bank(addr)
	start := now
	if h.bankFree[b] > start {
		h.bankWait += uint64(h.bankFree[b] - start)
		start = h.bankFree[b]
	}
	h.bankFree[b] = start + 1
	if h.dbanks[b].Access(addr) {
		return start + dHitLatency
	}
	busStart := h.bus.Acquire(start + dHitLatency)
	return busStart + missPenalty
}

// Stats summarises hierarchy activity.  The JSON tags are the field names of
// the public facade's result ("cache" object).
type Stats struct {
	InstrAccesses uint64 `json:"instr_accesses"` // InstrAccesses counts instruction-cache accesses.
	InstrMisses   uint64 `json:"instr_misses"`   // InstrMisses counts instruction-cache misses.
	DataAccesses  uint64 `json:"data_accesses"`  // DataAccesses counts data-cache accesses.
	DataMisses    uint64 `json:"data_misses"`    // DataMisses counts data-cache misses.
	BusTransfers  uint64 `json:"bus_transfers"`  // BusTransfers counts memory-bus block transfers.
	BusWait       uint64 `json:"bus_wait"`       // BusWait accumulates cycles spent waiting for the bus.
	BankWait      uint64 `json:"bank_wait"`      // BankWait accumulates cycles spent waiting on a busy cache bank.
}

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() Stats {
	var s Stats
	s.InstrAccesses = h.iAccesses
	s.DataAccesses = h.dAccesses
	for _, c := range h.icache {
		s.InstrMisses += c.Misses()
	}
	for _, c := range h.dbanks {
		s.DataMisses += c.Misses()
	}
	s.BusTransfers = h.bus.Transfers()
	s.BusWait = h.bus.TotalWait()
	s.BankWait = h.bankWait
	return s
}

// Reset clears all caches, the bus and the counters.
func (h *Hierarchy) Reset() {
	for _, c := range h.icache {
		c.Reset()
	}
	for _, c := range h.dbanks {
		c.Reset()
	}
	for i := range h.bankFree {
		h.bankFree[i] = 0
	}
	h.bus.Reset()
	h.iAccesses, h.dAccesses, h.bankWait = 0, 0, 0
}
