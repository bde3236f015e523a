package arb

import (
	"testing"
	"testing/quick"
)

// Test addresses are multiples of 8 below 8*testAddrs, numbered by idOf;
// test task ids are below testTasks.
const testAddrs, testTasks = 1024, 16

func idOf(addr uint64) int32 { return int32(addr / 8) }

// newARB returns an ARB sized for the test addresses and tasks.
func newARB(cfg Config) *ARB {
	a := New(cfg)
	a.Reset(testAddrs, testTasks)
	return a
}

func newTestARB() *ARB {
	return newARB(Config{Banks: 2, EntriesPerBank: 8})
}

// load and store access a test address under its id.
func load(a *ARB, addr, taskID, loadPC uint64) bool { return a.Load(addr, idOf(addr), taskID, loadPC) }

func store(a *ARB, addr, taskID uint64) (Violation, bool, bool) {
	return a.Store(addr, idOf(addr), taskID)
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(4)
	if c.Banks != 8 || c.EntriesPerBank != 32 {
		t.Errorf("config = %+v", c)
	}
	if DefaultConfig(0).Banks != 2 {
		t.Error("units must clamp to 1")
	}
}

func TestStoreAfterPrematureLoadIsViolation(t *testing.T) {
	a := newTestARB()
	// Task 5 (younger) loads address A before task 4 (older) stores it.
	if ok := load(a, 0x100, 5, 0x40); !ok {
		t.Fatal("load must be accepted")
	}
	v, violated, ok := store(a, 0x100, 4)
	if !ok {
		t.Fatal("store must be accepted")
	}
	if !violated {
		t.Fatal("expected a violation")
	}
	if v.LoadTask != 5 || v.StoreTask != 4 || v.LoadPC != 0x40 || v.Addr != 0x100 {
		t.Errorf("violation = %+v", v)
	}
	if a.Stats().Violations != 1 {
		t.Errorf("violations = %d", a.Stats().Violations)
	}
}

func TestStoreBeforeLoadNoViolation(t *testing.T) {
	a := newTestARB()
	if _, violated, _ := store(a, 0x100, 4); violated {
		t.Fatal("store with no younger load must not violate")
	}
	// The younger load now happens after the store: no violation to detect
	// (the timing simulator would have forwarded or re-read the value).
	if ok := load(a, 0x100, 5, 0x40); !ok {
		t.Fatal("load must be accepted")
	}
	if a.Stats().Violations != 0 {
		t.Error("no violation expected")
	}
}

func TestOlderLoadNotAViolation(t *testing.T) {
	a := newTestARB()
	// Task 3 (older than the store's task 4) loads first; a store by task 4
	// must not squash an older task.
	load(a, 0x100, 3, 0x40)
	if v, violated, _ := store(a, 0x100, 4); violated {
		t.Errorf("older load must not be reported: %+v", v)
	}
}

func TestLoadCoveredByOwnStoreIsNotExposed(t *testing.T) {
	a := newTestARB()
	// Task 5 stores to A and then loads it: the load reads its own version
	// and must not be vulnerable to an older store.
	store(a, 0x100, 5)
	load(a, 0x100, 5, 0x40)
	if v, violated, _ := store(a, 0x100, 4); violated {
		t.Errorf("load covered by the task's own store must be safe: %+v", v)
	}
}

func TestInterveningStoreInsulatesYoungerLoads(t *testing.T) {
	a := newTestARB()
	// Task 5 stores to A; task 6 loads A (reads task 5's version).
	store(a, 0x100, 5)
	load(a, 0x100, 6, 0x60)
	// Task 4 now stores A.  Task 6 read task 5's version, which is still the
	// closest preceding store, so no violation.
	if v, violated, _ := store(a, 0x100, 4); violated {
		t.Errorf("younger load insulated by intervening store must be safe: %+v", v)
	}
}

func TestViolationReportsOldestOffendingTask(t *testing.T) {
	a := newTestARB()
	load(a, 0x100, 5, 0x50)
	load(a, 0x100, 6, 0x60)
	v, violated, _ := store(a, 0x100, 4)
	if !violated || v.LoadTask != 5 {
		t.Errorf("violation must name the oldest offending task: %+v", v)
	}
}

func TestDifferentAddressesDoNotConflict(t *testing.T) {
	a := newTestARB()
	load(a, 0x100, 5, 0x50)
	if v, violated, _ := store(a, 0x180, 4); violated {
		t.Errorf("different address must not conflict: %+v", v)
	}
}

func TestCommitTaskClearsState(t *testing.T) {
	a := newTestARB()
	load(a, 0x100, 5, 0x50)
	a.CommitTask(5)
	if v, violated, _ := store(a, 0x100, 4); violated {
		t.Errorf("committed task must not be reported: %+v", v)
	}
	if tracked(a) != 1 {
		// The store itself re-allocated the entry.
		t.Errorf("entries = %d, want 1", tracked(a))
	}
}

func TestSquashTaskClearsState(t *testing.T) {
	a := newTestARB()
	load(a, 0x100, 5, 0x50)
	a.SquashTask(5)
	if v, violated, _ := store(a, 0x100, 4); violated {
		t.Errorf("squashed task must not be reported: %+v", v)
	}
}

func TestBankCapacityStalls(t *testing.T) {
	a := newARB(Config{Banks: 1, EntriesPerBank: 2})
	if ok := load(a, 0x000, 1, 0x10); !ok {
		t.Fatal("first entry must fit")
	}
	if ok := load(a, 0x040, 1, 0x14); !ok {
		t.Fatal("second entry must fit")
	}
	if ok := load(a, 0x080, 1, 0x18); ok {
		t.Fatal("third address must be refused (bank full)")
	}
	if a.Stats().Refused != 1 {
		t.Errorf("refused accesses = %d", a.Stats().Refused)
	}
	// Committing the task frees the entries and the access can proceed.
	a.CommitTask(1)
	if ok := load(a, 0x080, 1, 0x18); !ok {
		t.Fatal("access must succeed after space frees up")
	}
}

func TestExistingAddressDoesNotStallWhenFull(t *testing.T) {
	a := newARB(Config{Banks: 1, EntriesPerBank: 1})
	load(a, 0x000, 1, 0x10)
	// The same address is already tracked: accesses to it must not be refused even
	// though the bank has no free entries.
	if ok := load(a, 0x000, 2, 0x20); !ok {
		t.Fatal("tracked address must not be refused")
	}
	if _, _, ok := store(a, 0x000, 1); !ok {
		t.Fatal("tracked address store must not be refused")
	}
}

func TestStatsAndReset(t *testing.T) {
	a := newTestARB()
	load(a, 0x100, 5, 0x50)
	store(a, 0x100, 4)
	st := a.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Errorf("stats = %+v", st)
	}
	a.Reset(testAddrs, testTasks)
	if tracked(a) != 0 || a.Stats() != (Stats{}) {
		t.Error("reset must clear everything")
	}
}

// Property: the ARB detects exactly the violations a brute-force oracle finds
// for a random sequence of accesses by two tasks (older task 1, younger task
// 2) to a single address, where the older task's stores arrive after the
// younger task's loads.
func TestARBMatchesOracleTwoTasks(t *testing.T) {
	type op struct {
		Older bool // task 1 if true, else task 2
		Store bool
	}
	f := func(ops []op) bool {
		a := newARB(Config{Banks: 1, EntriesPerBank: 8})
		const addr = 0x40
		youngerExposedLoad := false
		youngerStored := false
		wantViolations := 0
		gotViolations := 0
		for _, o := range ops {
			task := uint64(2)
			if o.Older {
				task = 1
			}
			if o.Store {
				_, violated, ok := store(a, addr, task)
				if !ok {
					return false
				}
				if o.Older {
					// Oracle: violation iff the younger task has an exposed
					// load and has not produced its own version first.
					if youngerExposedLoad && !youngerStoredBeforeLoad(youngerStored, youngerExposedLoad) {
						wantViolations++
					}
					if violated {
						gotViolations++
					}
				} else {
					youngerStored = true
					if violated {
						return false // a younger store can never violate here
					}
				}
			} else {
				if !load(a, addr, task, 0x99) {
					return false
				}
				if !o.Older && !youngerStored {
					youngerExposedLoad = true
				}
			}
		}
		return wantViolations == gotViolations
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// youngerStoredBeforeLoad mirrors the exposure rule: once the younger task
// has an exposed load recorded, later stores by the younger task do not
// retroactively cover it.
func youngerStoredBeforeLoad(stored, exposed bool) bool {
	_ = stored
	return !exposed
}

// Property: entries never exceed banks*entriesPerBank.
func TestARBCapacityInvariant(t *testing.T) {
	f := func(addrs []uint8, tasks []uint8) bool {
		a := newARB(Config{Banks: 2, EntriesPerBank: 4})
		for i, ad := range addrs {
			task := uint64(1)
			if i < len(tasks) {
				task = uint64(tasks[i]%4) + 1
			}
			load(a, uint64(ad)*16, task, 0)
			if tracked(a) > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tracked is the number of addresses the buffer holds entries for.
func tracked(a *ARB) int { return len(a.entries) - len(a.free) }
