package arb

// The reference ARB: the map-based buffer that preceded the dense-id one,
// kept verbatim apart from its names, two corrected doc sentences and the
// shared Config, Violation and Stats types.  FuzzARBAgainstReference drives
// both with the same operations and requires every answer to agree.

// refTaskRecord records how one task has touched one address.  At least one of
// exposedLoad/stored is set on every stored record.
type refTaskRecord struct {
	id          uint64 // task identifier
	exposedLoad bool   // the task loaded the address before storing to it
	stored      bool   // the task has stored to the address
	loadPC      uint64 // PC of the first exposed load
}

// refEntry tracks one data address: the (unordered) access summaries of the
// in-flight tasks that touched it.
type refEntry struct {
	tasks []refTaskRecord
}

// find returns the task's record, or nil.
func (e *refEntry) find(taskID uint64) *refTaskRecord {
	for i := range e.tasks {
		if e.tasks[i].id == taskID {
			return &e.tasks[i]
		}
	}
	return nil
}

// refARB is the address resolution buffer.  touched indexes the tracked
// addresses by task, so reclaiming a committed or squashed task costs
// O(addresses that task touched) instead of a walk over every entry;
// entryFree and touchedFree recycle the backing storage.
//
//memdep:resettable
type refARB struct {
	cfg     Config //lint:reset-exempt construction-time configuration, immutable across runs
	banks   []map[uint64]*refEntry
	touched map[uint64][]uint64 // taskID -> tracked addrs

	entryFree   []*refEntry
	touchedFree [][]uint64

	loads      uint64
	stores     uint64
	violations uint64
	refused    uint64
}

// newRefARB creates an ARB with the given configuration.
func newRefARB(cfg Config) *refARB {
	cfg = cfg.withDefaults()
	a := &refARB{cfg: cfg, touched: make(map[uint64][]uint64)}
	a.banks = make([]map[uint64]*refEntry, cfg.Banks)
	for i := range a.banks {
		a.banks[i] = make(map[uint64]*refEntry, cfg.EntriesPerBank)
	}
	return a
}

func (a *refARB) bankOf(addr uint64) int {
	return int((addr / uint64(a.cfg.BlockSize)) % uint64(len(a.banks)))
}

// lookup finds or allocates the entry for addr.  It returns nil when the bank
// is full and the address is not yet tracked.
//
//memdep:hotpath
func (a *refARB) lookup(addr uint64, alloc bool) *refEntry {
	b := a.banks[a.bankOf(addr)]
	if e, ok := b[addr]; ok {
		return e
	}
	if !alloc {
		return nil
	}
	if len(b) >= a.cfg.EntriesPerBank {
		return nil
	}
	var e *refEntry
	if n := len(a.entryFree); n > 0 {
		e = a.entryFree[n-1]
		a.entryFree = a.entryFree[:n-1]
		e.tasks = e.tasks[:0]
	} else {
		e = &refEntry{} //lint:alloc-ok pool miss: grows the entry pool once, reused thereafter
	}
	b[addr] = e
	return e
}

// access returns the task's record for the entry, creating it (and
// registering the address in the task's touched index) on first contact.
//
//memdep:hotpath
func (a *refARB) access(e *refEntry, addr, taskID uint64) *refTaskRecord {
	if ta := e.find(taskID); ta != nil {
		return ta
	}
	ts, ok := a.touched[taskID]
	if !ok {
		if n := len(a.touchedFree); n > 0 {
			ts = a.touchedFree[n-1][:0]
			a.touchedFree = a.touchedFree[:n-1]
		}
	}
	a.touched[taskID] = append(ts, addr)                 //lint:alloc-ok amortized: per-task touched list reuses pooled backing
	e.tasks = append(e.tasks, refTaskRecord{id: taskID}) //lint:alloc-ok amortized: per-entry task list grows to working-set size once
	return &e.tasks[len(e.tasks)-1]
}

// Load records a load of addr by taskID.  ok is false when the ARB bank is
// full and the access is not tracked.
//
//memdep:hotpath
func (a *refARB) Load(addr uint64, taskID uint64, loadPC uint64) (ok bool) {
	e := a.lookup(addr, true)
	if e == nil {
		a.refused++
		return false
	}
	a.loads++
	ta := a.access(e, addr, taskID)
	if !ta.stored && !ta.exposedLoad {
		ta.exposedLoad = true
		ta.loadPC = loadPC
	}
	return true
}

// Store records a store of addr by taskID and returns any mis-speculation it
// exposes: the youngest-preceding rule of the ARB scans younger tasks in
// ascending order and reports the first task with an exposed load of addr,
// unless an intervening younger task has already stored to addr (in which
// case later tasks read that closer version and are safe).  Because every
// tracked access has loaded or stored, only the closest younger task can
// decide the outcome, so the scan is a single min-reduction over the entry
// (order-independent, hence deterministic).  The violation is returned by
// value (violated reports whether it is meaningful) so the per-store hot
// path never allocates.  ok is false when the ARB bank is full and the
// store is not tracked.
//
//memdep:hotpath
func (a *refARB) Store(addr uint64, taskID uint64) (v Violation, violated, ok bool) {
	e := a.lookup(addr, true)
	if e == nil {
		a.refused++
		return Violation{}, false, false
	}
	a.stores++
	ta := a.access(e, addr, taskID)
	ta.stored = true

	var closest *refTaskRecord
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
func (a *refARB) CommitTask(taskID uint64) {
	a.dropTask(taskID)
}

// SquashTask discards the bookkeeping of a task that has been squashed (its
// accesses never happened as far as the ARB is concerned; the re-execution
// will re-insert them).
//
//memdep:hotpath
func (a *refARB) SquashTask(taskID uint64) {
	a.dropTask(taskID)
}

//memdep:hotpath
func (a *refARB) dropTask(taskID uint64) {
	addrs, ok := a.touched[taskID]
	if !ok {
		return
	}
	for _, addr := range addrs {
		bank := a.banks[a.bankOf(addr)]
		e, ok := bank[addr]
		if !ok {
			continue
		}
		for i := range e.tasks {
			if e.tasks[i].id == taskID {
				last := len(e.tasks) - 1
				e.tasks[i] = e.tasks[last]
				e.tasks = e.tasks[:last]
				break
			}
		}
		if len(e.tasks) == 0 {
			delete(bank, addr)
			a.entryFree = append(a.entryFree, e) //lint:alloc-ok pooled free list grows to working-set size once
		}
	}
	a.touchedFree = append(a.touchedFree, addrs[:0]) //lint:alloc-ok pooled free list grows to working-set size once
	delete(a.touched, taskID)
}

// Entries returns the total number of addresses currently tracked.
func (a *refARB) Entries() int {
	n := 0
	for _, b := range a.banks {
		n += len(b)
	}
	return n
}

// Stats returns a snapshot of the counters.
func (a *refARB) Stats() Stats {
	return Stats{Loads: a.loads, Stores: a.stores, Violations: a.violations, Refused: a.refused}
}

// Reset clears all entries and counters in place: live address entries and
// touched-index slices are drained back into the free pools, so a reused ARB
// performs no steady-state allocations.
func (a *refARB) Reset() {
	for _, b := range a.banks {
		for addr, e := range b {
			e.tasks = e.tasks[:0]
			a.entryFree = append(a.entryFree, e)
			delete(b, addr)
		}
	}
	for taskID, addrs := range a.touched {
		a.touchedFree = append(a.touchedFree, addrs[:0])
		delete(a.touched, taskID)
	}
	a.loads, a.stores, a.violations, a.refused = 0, 0, 0, 0
}
