// Package arb implements an Address Resolution Buffer in the style of
// Franklin and Sohi (reference [8] of the paper), the hardware that a
// Multiscalar processor uses to detect memory dependence mis-speculations
// among concurrently executing tasks.
//
// The ARB tracks, per data address, which in-flight tasks have loaded or
// stored the address and in what order within each task.  When a store from
// an older task executes, any younger task that has already performed an
// "exposed" load of the same address (a load not preceded, within its own
// task, by a store to that address) has consumed a stale value: a
// mis-speculation is signalled and the younger task (and its successors) must
// be squashed.
//
// The buffer is organised in banks indexed by block address; each bank has a
// bounded number of address entries, mirroring the 32-entry-per-bank
// configuration of section 5.2.  When a bank is full, a new address cannot be
// tracked: the access is refused and counted, and the caller decides what to
// do with it (entries are reclaimed when tasks commit or are squashed).
//
// The ARB sits on the timing simulator's per-memory-operation hot path, so it
// never hashes.  The caller names every address by a dense id next to the
// address itself (the work item numbers its addresses), and every task by a
// dense id; Reset sizes one slot per address id and one touched list per
// task id.  A slot points into a slab of Banks*EntriesPerBank entries
// recycled through a free list, and per-address bookkeeping is a small
// linear-scanned slice, because only the processor's in-flight window (a
// handful of tasks) can touch an entry at a time.  The per-task lists of
// touched address ids, pooled across tasks, make commit/squash reclamation
// proportional to the task's footprint.
package arb

// Violation describes a detected memory dependence mis-speculation.
type Violation struct {
	// Addr is the conflicting data address.
	Addr uint64
	// StoreTask is the (older) task whose store detected the violation.
	StoreTask uint64
	// LoadTask is the (younger) task that performed the premature load.
	LoadTask uint64
	// LoadPC is the program counter of the first exposed load of Addr in
	// LoadTask (used to index the dependence prediction table).
	LoadPC uint64
}

// taskRecord records how one task has touched one address.  At least one of
// exposedLoad/stored is set on every stored record.
type taskRecord struct {
	id          uint64 // task identifier
	exposedLoad bool   // the task loaded the address before storing to it
	stored      bool   // the task has stored to the address
	loadPC      uint64 // PC of the first exposed load
}

// entry tracks one data address: the (unordered) access summaries of the
// in-flight tasks that touched it, and the bank whose capacity it takes.
type entry struct {
	tasks []taskRecord
	bank  int32
}

// find returns the task's record, or nil.
func (e *entry) find(taskID uint64) *taskRecord {
	for i := range e.tasks {
		if e.tasks[i].id == taskID {
			return &e.tasks[i]
		}
	}
	return nil
}

// blockSize is the bank interleaving granularity in bytes, the data cache's
// block size.
const blockSize = 64

// Config describes the ARB geometry.
type Config struct {
	// Banks is the number of ARB banks (the paper uses twice the number of
	// processing units, matching the data cache banks).
	Banks int
	// EntriesPerBank is the number of addresses each bank can track (32).
	EntriesPerBank int
}

// DefaultConfig returns the paper's ARB configuration for the given number of
// processing units.
func DefaultConfig(units int) Config {
	if units < 1 {
		units = 1
	}
	return Config{Banks: 2 * units, EntriesPerBank: 32}
}

func (c Config) withDefaults() Config {
	if c.Banks <= 0 {
		c.Banks = 8
	}
	if c.EntriesPerBank <= 0 {
		c.EntriesPerBank = 32
	}
	return c
}

// ARB is the address resolution buffer.
//
//memdep:resettable
type ARB struct {
	cfg Config //lint:reset-exempt construction-time configuration, immutable across runs

	// slot maps an address id to 1 + its index in entries, or 0 when the
	// address is not tracked.  fill counts the tracked addresses per bank.
	slot []int32
	fill []int32

	// entries is the slab behind every tracked address, one per bank
	// entry; free is the stack of unused indices.
	entries []entry
	free    []int32

	// touched lists, per task id, the address ids the task has records
	// in (nil when none); a dropped task's list is recycled through
	// touchedFree, so there are only as many lists as tasks in flight.
	touched     [][]int32
	touchedFree [][]int32

	loads      uint64
	stores     uint64
	violations uint64
	refused    uint64
}

// New creates an ARB with the given configuration.  It tracks no address
// ids and no task ids until Reset sizes it.
func New(cfg Config) *ARB {
	cfg = cfg.withDefaults()
	n := cfg.Banks * cfg.EntriesPerBank
	a := &ARB{
		cfg:     cfg,
		fill:    make([]int32, cfg.Banks),
		entries: make([]entry, n),
		free:    make([]int32, 0, n),
	}
	a.Reset(0, 0)
	return a
}

func (a *ARB) bankOf(addr uint64) int {
	return int((addr / blockSize) % uint64(a.cfg.Banks))
}

// lookup finds or allocates the entry for address id.  It returns nil when
// the address's bank is full and the address is not yet tracked.
//
//memdep:hotpath
func (a *ARB) lookup(addr uint64, id int32) *entry {
	if s := a.slot[id]; s != 0 {
		return &a.entries[s-1]
	}
	b := a.bankOf(addr)
	if int(a.fill[b]) >= a.cfg.EntriesPerBank {
		return nil
	}
	// A bank below capacity implies a free slab entry: the slab holds
	// every bank's capacity.
	n := len(a.free) - 1
	i := a.free[n]
	a.free = a.free[:n]
	a.fill[b]++
	a.slot[id] = i + 1
	e := &a.entries[i]
	e.bank = int32(b)
	return e
}

// access returns the task's record for the entry, creating it (and
// registering address id in the task's touched list) on first contact.
//
//memdep:hotpath
func (a *ARB) access(e *entry, id int32, taskID uint64) *taskRecord {
	if ta := e.find(taskID); ta != nil {
		return ta
	}
	ts := a.touched[taskID]
	if ts == nil {
		if n := len(a.touchedFree); n > 0 {
			ts = a.touchedFree[n-1]
			a.touchedFree = a.touchedFree[:n-1]
		}
	}
	a.touched[taskID] = append(ts, id)                //lint:alloc-ok amortized: per-task touched list reuses pooled backing
	e.tasks = append(e.tasks, taskRecord{id: taskID}) //lint:alloc-ok amortized: per-entry task list grows to working-set size once
	return &e.tasks[len(e.tasks)-1]
}

// Load records a load of addr, whose address id is id, by taskID.  ok is
// false when addr's bank is full and addr is not tracked yet: the load is
// not recorded, counts once in Stats.Refused, and a later store cannot
// detect a violation against it.
//
//memdep:hotpath
func (a *ARB) Load(addr uint64, id int32, taskID uint64, loadPC uint64) (ok bool) {
	e := a.lookup(addr, id)
	if e == nil {
		a.refused++
		return false
	}
	a.loads++
	ta := a.access(e, id, taskID)
	if !ta.stored && !ta.exposedLoad {
		ta.exposedLoad = true
		ta.loadPC = loadPC
	}
	return true
}

// Store records a store of addr, whose address id is id, by taskID and
// returns any mis-speculation it exposes: the youngest-preceding rule of the
// ARB scans younger tasks in ascending order and reports the first task with
// an exposed load of addr, unless an intervening younger task has already
// stored to addr (in which case later tasks read that closer version and are
// safe).  Because every tracked access has loaded or stored, only the
// closest younger task can decide the outcome, so the scan is a single
// min-reduction over the entry (order-independent, hence deterministic).
// The violation is returned by value (violated reports whether it is
// meaningful) so the per-store hot path never allocates.  ok is false when
// addr's bank is full and addr is not tracked yet: the store is not
// recorded, detects nothing, and counts once in Stats.Refused.
//
//memdep:hotpath
func (a *ARB) Store(addr uint64, id int32, taskID uint64) (v Violation, violated, ok bool) {
	e := a.lookup(addr, id)
	if e == nil {
		a.refused++
		return Violation{}, false, false
	}
	a.stores++
	ta := a.access(e, id, taskID)
	ta.stored = true

	var closest *taskRecord
	for i := range e.tasks {
		r := &e.tasks[i]
		if r.id > taskID && (closest == nil || r.id < closest.id) {
			closest = r
		}
	}
	if closest != nil && closest.exposedLoad {
		a.violations++
		return Violation{Addr: addr, StoreTask: taskID, LoadTask: closest.id, LoadPC: closest.loadPC}, true, true
	}
	// Either no younger task touched the address, or the closest one
	// produced its own version first and insulates the tasks beyond it.
	return Violation{}, false, true
}

// CommitTask discards the bookkeeping of a task that has committed.  Empty
// address entries are reclaimed.
//
//memdep:hotpath
func (a *ARB) CommitTask(taskID uint64) {
	a.dropTask(taskID)
}

// SquashTask discards the bookkeeping of a task that has been squashed (its
// accesses never happened as far as the ARB is concerned; the re-execution
// will re-insert them).
//
//memdep:hotpath
func (a *ARB) SquashTask(taskID uint64) {
	a.dropTask(taskID)
}

//memdep:hotpath
func (a *ARB) dropTask(taskID uint64) {
	ids := a.touched[taskID]
	if ids == nil {
		return
	}
	for _, id := range ids {
		i := a.slot[id] - 1
		e := &a.entries[i]
		for k := range e.tasks {
			if e.tasks[k].id == taskID {
				last := len(e.tasks) - 1
				e.tasks[k] = e.tasks[last]
				e.tasks = e.tasks[:last]
				break
			}
		}
		if len(e.tasks) == 0 {
			a.slot[id] = 0
			a.fill[e.bank]--
			a.free = append(a.free, i) //lint:alloc-ok never grows: its capacity is the slab size
		}
	}
	a.touchedFree = append(a.touchedFree, ids[:0]) //lint:alloc-ok pooled free list grows to the tasks in flight once
	a.touched[taskID] = nil
}

// Stats summarises ARB activity.  The JSON tags are the field names of the
// public facade's result ("arb" object).
type Stats struct {
	// Loads counts the loads recorded in the buffer.
	Loads uint64 `json:"loads"`
	// Stores counts the stores recorded in the buffer.
	Stores uint64 `json:"stores"`
	// Violations counts the store→load order violations the buffer detected.
	Violations uint64 `json:"violations"`
	// Refused counts the loads and stores refused because their bank was
	// full, each counted once.  The timing core lets a refused access
	// proceed untracked, so a violation against it goes undetected.
	Refused uint64 `json:"refused"`
}

// Stats returns a snapshot of the counters.
func (a *ARB) Stats() Stats {
	return Stats{Loads: a.loads, Stores: a.stores, Violations: a.violations, Refused: a.refused}
}

// Reset clears all entries and counters in place and sizes the buffer for
// address ids in [0, addrs) and task ids in [0, tasks).  The slot and
// touched arrays grow only when a run needs more ids than any before, and
// entries and touched lists go back to their free pools, so a reused ARB
// performs no steady-state allocations.
func (a *ARB) Reset(addrs, tasks int) {
	if cap(a.slot) < addrs {
		a.slot = make([]int32, addrs)
	}
	a.slot = a.slot[:addrs]
	clear(a.slot)
	clear(a.fill)
	a.free = a.free[:0]
	for i := len(a.entries) - 1; i >= 0; i-- {
		a.entries[i].tasks = a.entries[i].tasks[:0]
		a.free = append(a.free, int32(i))
	}
	// Every touched list past len(touched) is already nil.
	for i, ts := range a.touched {
		if ts != nil {
			a.touchedFree = append(a.touchedFree, ts[:0])
			a.touched[i] = nil
		}
	}
	if cap(a.touched) < tasks {
		a.touched = make([][]int32, tasks)
	}
	a.touched = a.touched[:tasks]
	a.loads, a.stores, a.violations, a.refused = 0, 0, 0, 0
}
