package multiscalar

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"memdep/internal/isa"
	"memdep/internal/memdep"
	"memdep/internal/policy"
	"memdep/internal/program"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// refInst is what Preprocess must resolve for one committed instruction,
// recomputed by referencePreprocess.
type refInst struct {
	task    int
	src     [2]int32
	memProd int32
	memTask int32
	addrID  int32
	prevMem int32
	loadOrd int32
}

// referencePreprocess recomputes every instruction's producers, address id,
// previous same-address access and load ordinal straight from the collected
// trace, the plain way: tasks come from the functional simulator's TaskID
// (not from TaskStart, which Preprocess uses), producers from whole-stream
// maps of the last writer and the last access, the memory producer's task
// from the collected record it names, and address ids from a map numbering
// the addresses of loads and stores in order of first appearance.
func referencePreprocess(t *testing.T, p *program.Program, cfg trace.Config) []refInst {
	t.Helper()
	stream := collectStream(t, p, cfg)
	lastWriter := map[isa.Reg]int{}
	lastStore := map[uint64]int{}
	lastAccess := map[uint64]int{}
	addrIDs := map[uint64]int32{}
	loadsInTask := map[uint64]int32{}
	ref := make([]refInst, len(stream))
	for i, d := range stream {
		r := refInst{task: int(d.TaskID), src: [2]int32{-1, -1}, memProd: -1, memTask: -1, prevMem: -1}
		ins := p.Code[d.Index]
		uses, n := ins.Uses()
		for k := 0; k < n; k++ {
			if w, ok := lastWriter[uses[k]]; ok && uses[k] != isa.Zero {
				r.src[k] = int32(w)
			}
		}
		if d.IsLoad() || d.IsStore() {
			id, ok := addrIDs[d.Addr]
			if !ok {
				id = int32(len(addrIDs))
				addrIDs[d.Addr] = id
			}
			r.addrID = id
			if prev, ok := lastAccess[d.Addr]; ok {
				r.prevMem = int32(prev)
			}
			lastAccess[d.Addr] = i
		}
		if d.IsLoad() {
			if s, ok := lastStore[d.Addr]; ok {
				r.memProd = int32(s)
				r.memTask = int32(stream[s].TaskID)
			}
			r.loadOrd = loadsInTask[d.TaskID]
			loadsInTask[d.TaskID]++
		}
		if d.IsStore() {
			lastStore[d.Addr] = i
		}
		if dst, ok := ins.Writes(); ok {
			lastWriter[dst] = i
		}
		ref[i] = r
	}
	return ref
}

// checkAgainstReference asserts that w agrees with the reference field for
// field: instruction records, task windows and the aggregate counts,
// including the number of address ids.
func checkAgainstReference(t *testing.T, w *WorkItem, ref []refInst) {
	t.Helper()
	if len(w.insts) != len(ref) || w.Instructions != uint64(len(ref)) {
		t.Fatalf("work item has %d instructions (Instructions=%d), reference %d",
			len(w.insts), w.Instructions, len(ref))
	}
	var loads, stores uint64
	addrs := 0
	for ti, tk := range w.tasks {
		if tk.start >= tk.end || (ti > 0 && tk.start != w.tasks[ti-1].end) {
			t.Fatalf("task %d window [%d,%d) does not continue the previous one", ti, tk.start, tk.end)
		}
		var tl, ts int32
		for i := tk.start; i < tk.end; i++ {
			r, want := &w.insts[i], ref[i]
			if want.task != ti {
				t.Fatalf("instruction %d is in task %d, reference %d", i, ti, want.task)
			}
			if r.class != isa.ClassOf(r.op) || r.isLoad() != isa.IsLoad(r.op) || r.isStore() != isa.IsStore(r.op) {
				t.Fatalf("instruction %d: derived class/flags disagree with op %v", i, r.op)
			}
			got := refInst{task: ti, src: r.src, memProd: r.memProd, memTask: r.memTask, prevMem: -1}
			if r.isLoad() {
				got.loadOrd = r.loadOrd
				tl++
			}
			if r.isStore() {
				ts++
			}
			if r.isLoad() || r.isStore() {
				got.addrID, got.prevMem = r.addrID, r.prevMem
				addrs = max(addrs, int(r.addrID)+1)
			}
			if got != want {
				t.Fatalf("instruction %d (%v at pc %#x):\ngot       %+v\nreference %+v", i, r.op, r.pc, got, want)
			}
		}
		if tk.loads != tl || tk.stores != ts {
			t.Fatalf("task %d counts loads=%d stores=%d, instructions say %d/%d", ti, tk.loads, tk.stores, tl, ts)
		}
		loads += uint64(tl)
		stores += uint64(ts)
	}
	if w.tasks[len(w.tasks)-1].end != int32(len(w.insts)) {
		t.Fatal("the task windows do not cover the instruction array")
	}
	if w.Loads != loads || w.Stores != stores {
		t.Fatalf("work item counts loads=%d stores=%d, tasks say %d/%d", w.Loads, w.Stores, loads, stores)
	}
	if w.addrs != addrs {
		t.Fatalf("work item counts %d address ids, its memory operations use %d", w.addrs, addrs)
	}
}

// TestPreprocessMatchesReference is the preprocess oracle: over synthetic
// seeds, paper workloads and the edge cases of task and stream boundaries,
// the flat work item agrees with an independent recomputation from the
// collected trace, and so does its decode(encode(...)) round trip.
func TestPreprocessMatchesReference(t *testing.T) {
	oneInst := program.NewBuilder("one")
	oneInst.AddI(1, 0, 5)
	oneInst.Halt()
	// A straight line with a task entry before every instruction: each task
	// is one instruction, and from the fourth iteration on each load's
	// producer is the store of three iterations earlier, in an older task.
	singleInst := program.NewBuilder("single-inst")
	for i := int64(0); i < 50; i++ {
		singleInst.TaskEntry()
		singleInst.AddI(5, 5, 1)
		singleInst.TaskEntry()
		singleInst.Store(5, isa.SP, -(1+i%4)*isa.WordSize)
		singleInst.TaskEntry()
		singleInst.Load(6, isa.SP, -(1+(i+1)%4)*isa.WordSize)
		singleInst.TaskEntry()
		singleInst.Add(7, 7, 6)
	}
	singleInst.TaskEntry()
	singleInst.Halt()

	type tcase struct {
		p   *program.Program
		cfg trace.Config
	}
	cases := map[string]tcase{
		"compress":       {workload.MustGet("compress").Build(1), trace.Config{MaxInstructions: 20_000}},
		"xlisp":          {workload.MustGet("xlisp").Build(1), trace.Config{MaxInstructions: 20_000}},
		"single-inst":    {singleInst.MustBuild(), trace.Config{}},
		"one-inst":       {oneInst.MustBuild(), trace.Config{}},
		"recurrence-cut": {buildRecurrence(40), trace.Config{}}, // cut set below
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cases[fmt.Sprintf("synth-%d", seed)] = tcase{
			synth.Spec{Seed: seed, Ops: 6_000, AliasSetSize: int(seed)}.Build(1), trace.Config{},
		}
	}
	// Cut the recurrence mid-task: the bound lands on an instruction that
	// is neither a task's first nor its last.
	rc := cases["recurrence-cut"]
	stream := collectStream(t, rc.p, rc.cfg)
	for i := len(stream) / 2; i < len(stream)-1; i++ {
		if !stream[i].TaskStart && !stream[i+1].TaskStart {
			rc.cfg.MaxInstructions = uint64(i + 1)
			break
		}
	}
	if rc.cfg.MaxInstructions == 0 {
		t.Fatal("no mid-task cut point in the recurrence")
	}
	cases["recurrence-cut"] = rc

	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			w, err := Preprocess(c.p, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if name == "single-inst" && w.Tasks() != len(w.insts) {
				t.Fatalf("a task entry on every instruction built %d tasks for %d instructions", w.Tasks(), len(w.insts))
			}
			ref := referencePreprocess(t, c.p, c.cfg)
			checkAgainstReference(t, w, ref)

			got, err := DecodeWorkItem(AppendWorkItem(nil, w))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatal("decode(encode(w)) differs from w")
			}
			checkAgainstReference(t, got, ref)
		})
	}
}

// TestConcurrentPreprocessMatchesSerial runs Preprocess from several
// goroutines at once (run under -race in CI): the pooled build scratch must
// never leak one build's state into another's work item.
func TestConcurrentPreprocessMatchesSerial(t *testing.T) {
	progs := make([]*program.Program, 4)
	want := make([]*WorkItem, len(progs))
	for i := range progs {
		progs[i] = synth.Spec{Seed: uint64(i + 1), Ops: 3_000, AliasSetSize: 1 << i}.Build(1)
		want[i] = prep(t, progs[i], 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(progs)
				w, err := Preprocess(progs[i], trace.Config{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(w, want[i]) {
					t.Errorf("goroutine %d: concurrent build of program %d differs from the serial one", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPreprocessInstructionLimit pins the structured error past the longest
// stream a work item can index, and that a stream at the limit is accepted.
func TestPreprocessInstructionLimit(t *testing.T) {
	p := buildRecurrence(5)
	full := prep(t, p, 0)
	saved := instLimit
	t.Cleanup(func() { instLimit = saved })

	instLimit = int(full.Instructions)
	if _, err := Preprocess(p, trace.Config{}); err != nil {
		t.Fatalf("a stream exactly at the limit: %v", err)
	}
	instLimit = int(full.Instructions) - 1
	if _, err := Preprocess(p, trace.Config{}); !errors.Is(err, ErrTooManyInstructions) {
		t.Fatalf("a stream past the limit: err = %v, want ErrTooManyInstructions", err)
	}
}

// TestInstRecordIs48Bytes pins the compact instruction record: the work
// item's memory and the core's cache footprint scale with it.
func TestInstRecordIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(inst{}); n != 48 {
		t.Fatalf("inst is %d bytes, want 48", n)
	}
}

// TestOneSetEqualsFullAssociativity is a metamorphic relation across table
// organizations: a set-associative MDPT whose ways equal its entries has one
// set, and one set of n ways is the fully associative table of n entries.
// The two are one type with one geometry, so their Results must be deeply
// equal under every predictor setting.
func TestOneSetEqualsFullAssociativity(t *testing.T) {
	const max = 40_000
	ctx := context.Background()
	sm := NewSimulator()
	for _, bench := range []string{"espresso", "compress"} {
		w := prep(t, workload.MustGet(bench).Build(1), max)
		for _, n := range []int{4, 64} {
			for _, stages := range []int{4, 8} {
				for _, pol := range []policy.Kind{policy.Sync, policy.ESync} {
					for _, bits := range []int{2, 3} {
						var results [2]Result
						for i, md := range []memdep.Config{
							{Table: memdep.TableSetAssoc, Entries: n, Ways: n, CounterBits: bits},
							{Table: memdep.TableFullAssoc, Entries: n, CounterBits: bits},
						} {
							cfg := DefaultConfig(stages, pol)
							cfg.MemDep = md
							res, err := sm.Simulate(ctx, w, cfg)
							if err != nil {
								t.Fatal(err)
							}
							checkResultLaws(t, cfg, res)
							results[i] = res
						}
						if !reflect.DeepEqual(results[0], results[1]) {
							t.Errorf("%s, %d stages, %v, %d-bit counters: %d×%d set-associative differs from %d-entry fully associative:\nsetassoc: %+v\nfull:     %+v",
								bench, stages, pol, bits, n, n, n, results[0], results[1])
						}
					}
				}
			}
		}
	}
}

// TestPredictorFreePoliciesIgnoreMemDep is a metamorphic relation: NEVER,
// ALWAYS, WAIT and PSYNC never consult the dependence predictor, so their
// Results are identical under every table organization, size,
// associativity, counter width and tagging scheme.  Each variant runs on a
// fresh arena and on one arena reused across the whole test, where a SYNC
// run under the same variant precedes it, so the predictor system the arena
// keeps through the oracle run is warm.  The arena relies on this invariant:
// it leaves that system untouched while a policy does not predict.
func TestPredictorFreePoliciesIgnoreMemDep(t *testing.T) {
	const max = 20_000
	items := []struct {
		name string
		w    *WorkItem
	}{
		{"compress", prep(t, workload.MustGet("compress").Build(1), max)},
		{"sc", prep(t, workload.MustGet("sc").Build(1), max)},
		{"gcc", prep(t, workload.MustGet("gcc").Build(1), max)},
		{"synth-alias4", prep(t, synth.Spec{Seed: 5, Ops: max, AliasSetSize: 4}.Build(1), 0)},
	}
	variants := []memdep.Config{
		{Table: memdep.TableSetAssoc, Entries: 16, Ways: 2},
		{Table: memdep.TableStoreSet, Entries: 128, Ways: 8},
		{Entries: 8, CounterBits: 2},
		{TagByAddress: true, CounterBits: 5},
		{Predictor: memdep.PredictAlways},
	}
	ctx := context.Background()
	reused := NewSimulator()
	for _, it := range items {
		for _, stages := range []int{4, 8} {
			for _, pol := range []policy.Kind{policy.Never, policy.Always, policy.Wait, policy.PerfectSync} {
				want, err := NewSimulator().Simulate(ctx, it.w, DefaultConfig(stages, pol))
				if err != nil {
					t.Fatal(err)
				}
				for _, md := range variants {
					cfg := DefaultConfig(stages, pol)
					cfg.MemDep = md
					warm := DefaultConfig(stages, policy.Sync)
					warm.MemDep = md
					if _, err := reused.Simulate(ctx, it.w, warm); err != nil {
						t.Fatal(err)
					}
					for _, run := range []struct {
						arena string
						sm    *Simulator
					}{{"fresh", NewSimulator()}, {"reused", reused}} {
						got, err := run.sm.Simulate(ctx, it.w, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s, %d stages, %v, %s arena, MemDep %+v: result differs from the paper table's:\ngot:  %+v\nwant: %+v",
								it.name, stages, pol, run.arena, md, got, want)
						}
					}
				}
			}
		}
	}
}

// collectStream runs the functional simulator and returns the committed
// dynamic instruction stream.
func collectStream(t *testing.T, p *program.Program, cfg trace.Config) []trace.DynInst {
	t.Helper()
	var stream []trace.DynInst
	if _, err := trace.Run(p, cfg, func(d trace.DynInst) bool {
		stream = append(stream, d)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return stream
}
