package multiscalar

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"memdep/internal/arb"
	"memdep/internal/isa"
	"memdep/internal/memdep"
	"memdep/internal/policy"
	"memdep/internal/program"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// buildRecurrence builds a small program with one hot cross-task store→load
// recurrence: each loop iteration (one task) loads a global, does some work,
// and stores it back late in the iteration.
func buildRecurrence(iters int64) *program.Program {
	b := program.NewBuilder("recurrence")
	b.AllocWords("acc", 1)
	b.AllocWords("scratch", 64)
	b.LoadAddr(27, "acc")
	b.LoadAddr(26, "scratch")
	b.LoadImm(25, iters)
	b.Loop(24, 25, true, func() {
		b.Load(2, 27, 0) // early load of the accumulator
		// Filler work so the store lands late in the task.
		for i := 0; i < 10; i++ {
			b.AddI(3, 24, int64(i))
			b.Mul(3, 3, 3)
			b.AndI(3, 3, 0xff)
			b.SllI(4, 3, 3)
			b.Add(4, 4, 26)
			b.Store(3, 4, 0)
			b.Load(5, 4, 0)
			b.Add(2, 2, 5)
		}
		b.Store(2, 27, 0) // late store of the accumulator
	})
	b.Load(isa.RV, 27, 0)
	b.Halt()
	return b.MustBuild()
}

func prep(t *testing.T, p *program.Program, max uint64) *WorkItem {
	t.Helper()
	w, err := Preprocess(p, trace.Config{MaxInstructions: max})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return w
}

func simulate(t *testing.T, w *WorkItem, stages int, pol policy.Kind) Result {
	t.Helper()
	res, err := SimulateContext(context.Background(), w, DefaultConfig(stages, pol))
	if err != nil {
		t.Fatalf("Simulate(%v, %d stages): %v", pol, stages, err)
	}
	return res
}

func TestPreprocessCounts(t *testing.T) {
	p := buildRecurrence(20)
	w := prep(t, p, 0)
	if w.Instructions == 0 || w.Loads == 0 || w.Stores == 0 {
		t.Fatalf("work item empty: %+v", w)
	}
	if w.Tasks() < 20 {
		t.Errorf("tasks = %d, want >= 20 (one per iteration)", w.Tasks())
	}
	if w.AvgTaskSize() <= 0 {
		t.Error("average task size must be positive")
	}
	// Committed counts must match an independent functional run.
	st, err := trace.Run(p, trace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != w.Instructions || st.Loads != w.Loads || st.Stores != w.Stores {
		t.Errorf("work item counts %d/%d/%d do not match functional run %d/%d/%d",
			w.Instructions, w.Loads, w.Stores, st.Instructions, st.Loads, st.Stores)
	}
}

func TestPreprocessFindsCrossTaskProducers(t *testing.T) {
	p := buildRecurrence(10)
	w := prep(t, p, 0)
	cross := 0
	for ti, task := range w.tasks {
		for _, r := range w.insts[task.start:task.end] {
			if r.isLoad() && r.memProd >= 0 && int(r.memTask) != ti {
				cross++
			}
		}
	}
	if cross < 5 {
		t.Errorf("cross-task memory producers = %d, want >= 5", cross)
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	cfg := DefaultConfig(8, policy.Sync)
	if cfg.Stages != 8 || cfg.MaxCycles != defaultMaxCycles || cfg.MemDep.Entries != 64 {
		t.Errorf("config = %+v", cfg)
	}
	if got := (Config{}).withDefaults().Stages; got != DefaultStages {
		t.Errorf("zero stages default to %d, want %d", got, DefaultStages)
	}
	if cfg.MemDep.SyncSlots != 8 {
		t.Errorf("memdep sync slots = %d, want 8", cfg.MemDep.SyncSlots)
	}
	if pk := cfg.MemDep.Predictor; pk.String() != "SYNC" {
		t.Errorf("predictor = %v", pk)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bad := Config{Policy: policy.Kind(99)}
	if err := bad.Validate(); err == nil {
		t.Error("invalid policy must fail validation")
	}
}

func TestSimulateCompletesAndCommitsEverything(t *testing.T) {
	w := prep(t, buildRecurrence(50), 0)
	for _, pol := range policy.All() {
		res := simulate(t, w, 4, pol)
		if res.Instructions != w.Instructions {
			t.Errorf("%v: committed %d instructions, want %d", pol, res.Instructions, w.Instructions)
		}
		if res.Tasks != uint64(w.Tasks()) {
			t.Errorf("%v: committed %d tasks, want %d", pol, res.Tasks, w.Tasks())
		}
		if res.Cycles <= 0 || res.IPC() <= 0 {
			t.Errorf("%v: cycles=%d ipc=%v", pol, res.Cycles, res.IPC())
		}
	}
}

func TestOraclePoliciesNeverMisspeculate(t *testing.T) {
	w := prep(t, buildRecurrence(60), 0)
	for _, stages := range []int{4, 8} {
		for _, pol := range []policy.Kind{policy.Never, policy.Wait, policy.PerfectSync} {
			res := simulate(t, w, stages, pol)
			if res.Misspeculations != 0 {
				t.Errorf("%v/%d stages: %d mis-speculations, want 0", pol, stages, res.Misspeculations)
			}
			if res.SquashedInstructions != 0 {
				t.Errorf("%v/%d stages: squashed %d instructions, want 0", pol, stages, res.SquashedInstructions)
			}
		}
	}
}

func TestBlindSpeculationMisspeculatesOnRecurrence(t *testing.T) {
	w := prep(t, buildRecurrence(60), 0)
	res := simulate(t, w, 4, policy.Always)
	if res.Misspeculations == 0 {
		t.Error("blind speculation on a tight recurrence must mis-speculate")
	}
	if len(res.MisspecPairs) == 0 {
		t.Error("mis-speculation pairs must be recorded")
	}
}

func TestPerfectSyncIsUpperBound(t *testing.T) {
	w := prep(t, workload.MustGet("compress").Build(1), 40_000)
	for _, stages := range []int{4, 8} {
		psync := simulate(t, w, stages, policy.PerfectSync)
		for _, pol := range []policy.Kind{policy.Never, policy.Always, policy.Wait, policy.Sync, policy.ESync} {
			res := simulate(t, w, stages, pol)
			// Allow a 2% tolerance: PSYNC is an idealised policy, not a
			// strict bound on every cycle-level interaction.
			if float64(res.Cycles) < float64(psync.Cycles)*0.98 {
				t.Errorf("%v/%d stages: %d cycles beats PSYNC's %d", pol, stages, res.Cycles, psync.Cycles)
			}
		}
	}
}

func TestAlwaysBeatsNeverOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping workload timing comparison in -short mode")
	}
	for _, name := range []string{"compress", "espresso", "xlisp"} {
		w := prep(t, workload.MustGet(name).Build(1), 40_000)
		never := simulate(t, w, 4, policy.Never)
		always := simulate(t, w, 4, policy.Always)
		if always.Cycles >= never.Cycles {
			t.Errorf("%s: ALWAYS (%d cycles) must beat NEVER (%d cycles)",
				name, always.Cycles, never.Cycles)
		}
	}
}

func TestMechanismReducesMisspeculations(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping workload timing comparison in -short mode")
	}
	w := prep(t, workload.MustGet("compress").Build(1), 40_000)
	always := simulate(t, w, 4, policy.Always)
	sync := simulate(t, w, 4, policy.Sync)
	if always.Misspeculations == 0 {
		t.Fatal("expected mis-speculations under blind speculation")
	}
	if sync.Misspeculations*4 > always.Misspeculations {
		t.Errorf("SYNC misspeculations %d not much lower than ALWAYS %d",
			sync.Misspeculations, always.Misspeculations)
	}
	if sync.Cycles >= always.Cycles {
		t.Errorf("SYNC (%d cycles) should beat ALWAYS (%d cycles) on compress",
			sync.Cycles, always.Cycles)
	}
}

func TestCommittedWorkIdenticalAcrossPolicies(t *testing.T) {
	w := prep(t, buildRecurrence(40), 0)
	var ref Result
	for i, pol := range policy.All() {
		res := simulate(t, w, 4, pol)
		if i == 0 {
			ref = res
			continue
		}
		if res.Instructions != ref.Instructions || res.Loads != ref.Loads ||
			res.Stores != ref.Stores || res.Tasks != ref.Tasks {
			t.Errorf("%v: committed work differs from %v", pol, ref.Policy)
		}
	}
}

// TestSimulationRunToRunDeterministic is the regression test for the
// map-iteration-order bug: commitTask/squashTask used to walk a
// map[int]*loadRecord while updating the MDPT/MDST, so predictor state --
// and therefore every downstream statistic -- could vary run to run.  The
// full Result (including the MemDep counters) must now be identical across
// in-process reruns, for every policy and both cores.
func TestSimulationRunToRunDeterministic(t *testing.T) {
	w := prep(t, buildRecurrence(40), 0)
	for _, core := range []CoreMode{CoreEvent, coreStepped} {
		for _, pol := range policy.All() {
			cfg := DefaultConfig(4, pol)
			cfg.Core = core
			a, err := SimulateContext(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", core, pol, err)
			}
			b, err := SimulateContext(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", core, pol, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v/%v: results differ between identical runs:\n%+v\nvs\n%+v", core, pol, a, b)
			}
		}
	}
}

// TestCoresCycleIdentical asserts the central guarantee of the event-driven
// core: skipping cycles in which no task can make progress, and parking
// tasks until the action that unblocks them, changes nothing.  The full
// Result -- cycles, squashes, wait accounting, predictor breakdown,
// cache/ARB/sequencer/MDPT counters -- must be identical between the
// event-driven core and the stepped reference loop.  The inputs are every
// suite benchmark at the 20,000-instruction bound the experiment drivers
// were once compared at, a 20,000-op synthetic spec (the shape of the
// benchmark's cold and grid traffic) and a recurrence kernel, at 1, 4, 8 and
// 16 stages under every policy, plus the set-associative and store-set
// tables under SYNC and ESYNC, and SYNC under the two ablations of the
// predictor: address tagging, the one configuration in which a younger
// task's store can release an older task's load, and a predictor without
// the prediction field.
//
// The one-stage runs also check a metamorphic relation.  One stage holds
// one task in flight, so every older task has committed: no store finds an
// exposed younger load, the predictor never learns a dependence, NEVER and
// WAIT find every prior store resolved, and PSYNC sees no dependence on an
// in-flight store.  Every configuration therefore runs the same schedule:
// equal cycles, zero misspeculations and zero waits.
func TestCoresCycleIdentical(t *testing.T) {
	items := map[string]*WorkItem{
		"recurrence": prep(t, buildRecurrence(60), 0),
		"synth20k":   prep(t, synth.Spec{Seed: 1, Ops: 20_000}.Build(1), 0),
	}
	for _, name := range workload.Names() {
		items[name] = prep(t, workload.MustGet(name).Build(1), 20_000)
	}
	var cfgs []Config
	for _, stages := range []int{1, 4, 8, 16} {
		for _, pol := range policy.All() {
			cfgs = append(cfgs, DefaultConfig(stages, pol))
		}
		for _, pol := range []policy.Kind{policy.Sync, policy.ESync} {
			for _, table := range []memdep.TableKind{memdep.TableSetAssoc, memdep.TableStoreSet} {
				cfg := DefaultConfig(stages, pol)
				cfg.MemDep.Table = table
				cfgs = append(cfgs, cfg)
			}
		}
		tagged := DefaultConfig(stages, policy.Sync)
		tagged.MemDep.TagByAddress = true
		always := DefaultConfig(stages, policy.Sync)
		always.MemDep.Predictor = memdep.PredictAlways
		cfgs = append(cfgs, tagged, always)
	}
	for name, w := range items {
		oneStageCycles := int64(-1)
		for _, cfg := range cfgs {
			where := fmt.Sprintf("%s/%d stages/%v/%+v", name, cfg.Stages, cfg.Policy, cfg.MemDep)
			re, err := SimulateContext(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s event: %v", where, err)
			}
			stepped := cfg
			stepped.Core = coreStepped
			rs, err := SimulateContext(context.Background(), w, stepped)
			if err != nil {
				t.Fatalf("%s stepped: %v", where, err)
			}
			if !reflect.DeepEqual(re, rs) {
				t.Errorf("%s: event and stepped cores disagree:\nevent:   %+v\nstepped: %+v", where, re, rs)
			}
			checkResultLaws(t, cfg, re)
			checkMisspecPairs(t, w, re)
			if cfg.Stages != 1 {
				continue
			}
			if re.Misspeculations != 0 || re.LoadsWaited != 0 || re.WaitCycles != 0 {
				t.Errorf("%s: %d misspeculations, %d loads waited for %d cycles; one stage speculates on nothing",
					where, re.Misspeculations, re.LoadsWaited, re.WaitCycles)
			}
			if oneStageCycles < 0 {
				oneStageCycles = re.Cycles
			} else if re.Cycles != oneStageCycles {
				t.Errorf("%s: %d cycles, want the %d of every other one-stage configuration", where, re.Cycles, oneStageCycles)
			}
		}
	}
}

// checkResultLaws asserts the conservation laws of a completed run's
// counters, each of which follows from the code that maintains them:
//
//   - Breakdown.Total() == Loads.  commitTask classifies every load of a
//     committing task, and a task commits only after all its loads issued.
//   - Misspeculations == ARB.Violations == the sum of MisspecPairs.
//     handleViolation runs once per violation ARB.Store reports, and bumps
//     the counter and one pair.
//   - Misspeculations == 0 under NEVER, WAIT and PSYNC.  loadMayIssue holds
//     back every load with a dependence on an in-flight store until that
//     store has issued (NEVER and WAIT wait for all prior stores, PSYNC for
//     the producer), so no store finds an exposed younger load.
//   - Under SYNC and ESYNC, MemDep.Misspeculations == Misspeculations
//     (handleViolation reports every violation to the predictor) and
//     LoadsWaited == MemDep.LoadsMadeToWait (a load begins a wait exactly
//     when LoadIssue decides Wait).  The other policies run no
//     memdep.System, so MemDep is zero.
//   - LoadsReleasedByStore + LoadsReleasedStale <= LoadsMadeToWait <=
//     LoadsPredictedDependent.  A release ends a wait, by a store's signal
//     or stale, and LoadIssue decides Wait only for a predicted load.
//   - Squashes >= Misspeculations.  A violation squashes at least the
//     violating load's task, which is younger than the store's and so not
//     yet committed.
//
// FalseDependenceReleases == LoadsReleasedStale is not a law: ReleaseLoad
// counts a stale release only when it frees an MDST entry.
func checkResultLaws(t *testing.T, cfg Config, r Result) {
	t.Helper()
	where := fmt.Sprintf("%s at %d stages under %v (%v table)", r.Benchmark, cfg.Stages, cfg.Policy, cfg.MemDep.Table)
	if got := r.Breakdown.Total(); got != r.Loads {
		t.Errorf("%s: Breakdown.Total() = %d, want Loads = %d", where, got, r.Loads)
	}
	var pairs uint64
	for _, n := range r.MisspecPairs {
		pairs += n
	}
	if r.ARB.Violations != r.Misspeculations || pairs != r.Misspeculations {
		t.Errorf("%s: Misspeculations = %d, ARB.Violations = %d, sum of MisspecPairs = %d; want all equal",
			where, r.Misspeculations, r.ARB.Violations, pairs)
	}
	switch cfg.Policy {
	case policy.Never, policy.Wait, policy.PerfectSync:
		if r.Misspeculations != 0 {
			t.Errorf("%s: %d misspeculations, want 0 under a policy that waits for true dependences", where, r.Misspeculations)
		}
	}
	m := r.MemDep
	if cfg.Policy.UsesPredictor() {
		if m.Misspeculations != r.Misspeculations {
			t.Errorf("%s: MemDep.Misspeculations = %d, want Misspeculations = %d", where, m.Misspeculations, r.Misspeculations)
		}
		if r.LoadsWaited != m.LoadsMadeToWait {
			t.Errorf("%s: LoadsWaited = %d, want MemDep.LoadsMadeToWait = %d", where, r.LoadsWaited, m.LoadsMadeToWait)
		}
	} else if m != (memdep.SystemStats{}) {
		t.Errorf("%s: MemDep = %+v, want zero without the predictor", where, m)
	}
	if m.LoadsReleasedByStore+m.LoadsReleasedStale > m.LoadsMadeToWait || m.LoadsMadeToWait > m.LoadsPredictedDependent {
		t.Errorf("%s: released by store %d + released stale %d <= made to wait %d <= predicted dependent %d does not hold",
			where, m.LoadsReleasedByStore, m.LoadsReleasedStale, m.LoadsMadeToWait, m.LoadsPredictedDependent)
	}
	if r.Squashes < r.Misspeculations {
		t.Errorf("%s: Squashes = %d, want at least Misspeculations = %d", where, r.Squashes, r.Misspeculations)
	}
}

// checkMisspecPairs asserts that every MisspecPairs key names a real older
// store: w holds a dynamic load at the key's load PC and a dynamic store at
// its store PC, to the same address, with the store in an older task.  The
// ARB reports a violation only when a store reaches an address an exposed
// load of a younger task has read.  The store need not be the load's last
// producer: a later store to the address may commit in between, so that
// stronger form is not asserted.
func checkMisspecPairs(t *testing.T, w *WorkItem, r Result) {
	t.Helper()
	if len(r.MisspecPairs) == 0 {
		return
	}
	storesOf := map[uint64]bool{}
	loadsOf := map[uint64][]uint64{} // load PC -> store PCs
	for k := range r.MisspecPairs {
		storesOf[k.StorePC] = true
		loadsOf[k.LoadPC] = append(loadsOf[k.LoadPC], k.StorePC)
	}
	// firstTask[store PC][address] is the oldest task storing there.
	firstTask := map[uint64]map[uint64]int{}
	found := map[memdep.PairKey]bool{}
	for ti, tk := range w.tasks {
		for i := tk.start; i < tk.end; i++ {
			in := &w.insts[i]
			if in.isLoad() {
				for _, st := range loadsOf[in.pc] {
					if first, ok := firstTask[st][in.addr]; ok && first < ti {
						found[memdep.PairKey{LoadPC: in.pc, StorePC: st}] = true
					}
				}
			}
			if in.isStore() && storesOf[in.pc] {
				if firstTask[in.pc] == nil {
					firstTask[in.pc] = map[uint64]int{}
				}
				if _, ok := firstTask[in.pc][in.addr]; !ok {
					firstTask[in.pc][in.addr] = ti
				}
			}
		}
	}
	for k := range r.MisspecPairs {
		if !found[k] {
			t.Errorf("%s at %d stages under %v: mis-speculated pair %v has no store to a load's address in an older task",
				r.Benchmark, r.Stages, r.Policy, k)
		}
	}
}

// goldenFingerprint compresses the deterministic scalar core of a Result
// into one comparable line.
func goldenFingerprint(r Result) string {
	return fmt.Sprintf("cycles=%d tasks=%d misspec=%d squashes=%d squashedInstr=%d waited=%d waitCycles=%d falseRel=%d breakdown=%v arbRefused=%d",
		r.Cycles, r.Tasks, r.Misspeculations, r.Squashes, r.SquashedInstructions,
		r.LoadsWaited, r.WaitCycles, r.FalseDependenceReleases, r.Breakdown, r.ARB.Refused)
}

// TestGoldenResults pins the simulator's observable behaviour on one small
// benchmark under every policy.  The values come from the stepped reference
// core after the deterministic-update-order fix (the event-driven core
// produces the same ones, and the regenerated EXPERIMENTS.md matches the
// seed's byte for byte) and must survive any future optimization unchanged;
// an intentional semantic change must update them in the same commit.
func TestGoldenResults(t *testing.T) {
	golden := map[policy.Kind]string{
		policy.Never:       "cycles=5139 tasks=32 misspec=0 squashes=0 squashedInstr=0 waited=30 waitCycles=14493 falseRel=0 breakdown=[[301 30] [0 0]] arbRefused=0",
		policy.Always:      "cycles=5165 tasks=32 misspec=30 squashes=87 squashedInstr=6631 waited=0 waitCycles=0 falseRel=0 breakdown=[[331 0] [0 0]] arbRefused=0",
		policy.Wait:        "cycles=5139 tasks=32 misspec=0 squashes=0 squashedInstr=0 waited=30 waitCycles=14493 falseRel=0 breakdown=[[301 30] [0 0]] arbRefused=0",
		policy.PerfectSync: "cycles=5139 tasks=32 misspec=0 squashes=0 squashedInstr=0 waited=30 waitCycles=14493 falseRel=0 breakdown=[[301 30] [0 0]] arbRefused=0",
		policy.Sync:        "cycles=4954 tasks=32 misspec=4 squashes=6 squashedInstr=233 waited=28 waitCycles=12773 falseRel=0 breakdown=[[301 0] [2 28]] arbRefused=0",
		policy.ESync:       "cycles=4954 tasks=32 misspec=4 squashes=6 squashedInstr=233 waited=28 waitCycles=12773 falseRel=0 breakdown=[[301 0] [2 28]] arbRefused=0",
	}
	checkGoldens(t, prep(t, buildRecurrence(30), 0), golden)
}

// checkGoldens simulates w at 4 stages under every policy, checks each
// Result's conservation laws and compares its fingerprint with its golden
// line.
func checkGoldens(t *testing.T, w *WorkItem, golden map[policy.Kind]string) {
	t.Helper()
	for _, pol := range policy.All() {
		res := simulate(t, w, 4, pol)
		checkResultLaws(t, DefaultConfig(4, pol), res)
		checkMisspecPairs(t, w, res)
		got := goldenFingerprint(res)
		want, ok := golden[pol]
		if !ok {
			t.Errorf("no golden entry for %v; current fingerprint:\n%q", pol, got)
			continue
		}
		if got != want {
			t.Errorf("%v fingerprint drifted:\ngot  %s\nwant %s", pol, got, want)
		}
	}
}

// TestGoldenResultsUnderARBOverflow pins every policy at 4 stages on a
// synthetic workload whose 512-instruction tasks overflow the paper-sized
// ARB, so refused accesses, violations and squashes interact.  The values
// were recorded before the ARB moved from address maps to dense address
// ids, and the move kept them.  A full bank currently lets the access
// proceed untracked (counted in ARB.Refused); making it stall instead, as
// the hardware would, changes these fingerprints deliberately.
func TestGoldenResultsUnderARBOverflow(t *testing.T) {
	golden := map[policy.Kind]string{
		policy.Never:       "cycles=43549 tasks=81 misspec=0 squashes=0 squashedInstr=0 waited=40 waitCycles=31613 falseRel=0 breakdown=[[14741 60] [0 0]] arbRefused=781",
		policy.Always:      "cycles=43464 tasks=81 misspec=21 squashes=63 squashedInstr=172 waited=0 waitCycles=0 falseRel=0 breakdown=[[14741 60] [0 0]] arbRefused=914",
		policy.Wait:        "cycles=43530 tasks=81 misspec=0 squashes=0 squashedInstr=0 waited=20 waitCycles=31555 falseRel=0 breakdown=[[14741 60] [0 0]] arbRefused=781",
		policy.PerfectSync: "cycles=43490 tasks=81 misspec=0 squashes=0 squashedInstr=0 waited=40 waitCycles=31515 falseRel=0 breakdown=[[14741 60] [0 0]] arbRefused=781",
		policy.Sync:        "cycles=43465 tasks=81 misspec=2 squashes=6 squashedInstr=20 waited=39 waitCycles=30320 falseRel=1 breakdown=[[14741 20] [1 39]] arbRefused=781",
		policy.ESync:       "cycles=43472 tasks=81 misspec=4 squashes=12 squashedInstr=32 waited=37 waitCycles=27923 falseRel=2 breakdown=[[14741 21] [2 37]] arbRefused=788",
	}
	spec := synth.Spec{Seed: 7, Ops: 40_000, Body: 2048, TaskSize: 512, LoadFrac: 0.35, StoreFrac: 0.3}
	checkGoldens(t, prep(t, spec.Build(1), 0), golden)
}

// TestARBBypassesSurfaced forces ARB bank overflow with a one-entry buffer
// and checks that the refused accesses reach the Result.
func TestARBBypassesSurfaced(t *testing.T) {
	w := prep(t, buildRecurrence(20), 0)
	sm := NewSimulator()
	sm.reset(context.Background(), w, DefaultConfig(4, policy.Always))
	sm.s.arb = arb.New(arb.Config{Banks: 1, EntriesPerBank: 1, BlockSize: 64})
	sm.s.arb.Reset(w.addrs, w.Tasks())
	if err := sm.s.run(); err != nil {
		t.Fatal(err)
	}
	res := sm.s.result()
	if res.ARB.Refused == 0 {
		t.Error("a one-entry ARB on a multi-address workload must overflow, ARB.Refused = 0")
	}
	// The paper-sized ARB must not overflow on the same workload.
	big := simulate(t, w, 4, policy.Always)
	if big.ARB.Refused != 0 {
		t.Errorf("default ARB overflowed %d times on a small workload", big.ARB.Refused)
	}
}

func TestPredictionBreakdownCoversAllLoads(t *testing.T) {
	w := prep(t, buildRecurrence(40), 0)
	res := simulate(t, w, 4, policy.Sync)
	if res.Breakdown.Total() != res.Loads {
		t.Errorf("breakdown total %d != committed loads %d", res.Breakdown.Total(), res.Loads)
	}
	sum := 0.0
	for p := 0; p < 2; p++ {
		for a := 0; a < 2; a++ {
			sum += res.Breakdown.Percent(p, a)
		}
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("breakdown percentages sum to %v", sum)
	}
}

func TestDDCFeedOnMultiscalarMisspecs(t *testing.T) {
	w := prep(t, buildRecurrence(60), 0)
	cfg := DefaultConfig(4, policy.Always)
	cfg.DDCSizes = []int{4, 64}
	res, err := SimulateContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misspeculations == 0 {
		t.Skip("no mis-speculations observed; DDC feed not exercised")
	}
	if len(res.DDCMissRate) != 2 {
		t.Fatalf("DDC miss rates = %v", res.DDCMissRate)
	}
	if res.DDCMissRate[64] > res.DDCMissRate[4] {
		t.Errorf("larger DDC must not miss more: %v", res.DDCMissRate)
	}
}

func TestMoreStagesMoreMisspeculations(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping workload timing comparison in -short mode")
	}
	w := prep(t, workload.MustGet("xlisp").Build(1), 40_000)
	s4 := simulate(t, w, 4, policy.Always)
	s8 := simulate(t, w, 8, policy.Always)
	if s8.Misspeculations < s4.Misspeculations {
		t.Errorf("8 stages (%d) should see at least as many mis-speculations as 4 (%d)",
			s8.Misspeculations, s4.Misspeculations)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Cycles: 1000, Instructions: 2500, Loads: 500, Misspeculations: 25}
	if r.IPC() != 2.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.MisspecsPerCommittedLoad() != 0.05 {
		t.Errorf("misspec/load = %v", r.MisspecsPerCommittedLoad())
	}
	base := Result{Cycles: 1200}
	if got := r.SpeedupOver(base); got < 19.9 || got > 20.1 {
		t.Errorf("speedup = %v, want 20%%", got)
	}
	var zero Result
	if zero.IPC() != 0 || zero.MisspecsPerCommittedLoad() != 0 || zero.SpeedupOver(base) != 0 {
		t.Error("zero result metrics must be zero")
	}
}

func TestStagesAffectThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping workload timing comparison in -short mode")
	}
	w := prep(t, workload.MustGet("espresso").Build(1), 40_000)
	s4 := simulate(t, w, 4, policy.PerfectSync)
	s8 := simulate(t, w, 8, policy.PerfectSync)
	if s8.Cycles >= s4.Cycles {
		t.Errorf("8 stages (%d cycles) should not be slower than 4 stages (%d cycles) under PSYNC",
			s8.Cycles, s4.Cycles)
	}
}

func TestSimulateErrorOnCycleLimit(t *testing.T) {
	w := prep(t, buildRecurrence(50), 0)
	cfg := DefaultConfig(4, policy.Always)
	cfg.MaxCycles = 10
	if _, err := SimulateContext(context.Background(), w, cfg); err == nil {
		t.Error("expected an error when the cycle limit is exceeded")
	}
}
