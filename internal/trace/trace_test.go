package trace

import (
	"testing"
	"testing/quick"

	"memdep/internal/isa"
	"memdep/internal/program"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if got := m.ReadWord(0x1000); got != 0 {
		t.Errorf("unwritten memory = %d, want 0", got)
	}
	m.WriteWord(0x1000, 42)
	m.WriteWord(0x1008, -7)
	if got := m.ReadWord(0x1000); got != 42 {
		t.Errorf("read = %d, want 42", got)
	}
	if got := m.ReadWord(0x1008); got != -7 {
		t.Errorf("read = %d, want -7", got)
	}
	// Distant addresses land on separate pages.
	m.WriteWord(0x4000_0000, 9)
	if len(m.pages) < 2 {
		t.Errorf("footprint = %d, want >= 2", len(m.pages))
	}
	if got := m.ReadWord(0x4000_0000); got != 9 {
		t.Errorf("far read = %d, want 9", got)
	}
}

// Property: memory behaves like a map from word-aligned address to value.
func TestMemoryMatchesMap(t *testing.T) {
	f := func(ops []struct {
		Addr  uint32
		Value int64
	}) bool {
		m := NewMemory()
		ref := map[uint64]int64{}
		for _, op := range ops {
			addr := uint64(op.Addr) &^ (isa.WordSize - 1)
			m.WriteWord(addr, op.Value)
			ref[addr] = op.Value
		}
		for addr, want := range ref {
			if m.ReadWord(addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildSumProgram computes the sum 0+1+...+n-1 into memory and loads it back.
func buildSumProgram(n int64) *program.Program {
	b := program.NewBuilder("sum")
	b.AllocWords("acc", 1)
	b.LoadImm(10, n)
	b.LoadAddr(11, "acc")
	b.Loop(12, 10, true, func() {
		b.Load(13, 11, 0)  // load accumulator
		b.Add(13, 13, 12)  // add counter
		b.Store(13, 11, 0) // store back
	})
	b.Load(isa.RV, 11, 0)
	b.Halt()
	return b.MustBuild()
}

func TestFunctionalSum(t *testing.T) {
	p := buildSumProgram(10)
	m := newMachine(p)
	for !m.halted {
		if err := m.step(); err != nil && err != errHalted {
			t.Fatalf("Step: %v", err)
		}
	}
	if got := m.regs[isa.RV]; got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := program.NewBuilder("halt")
	b.Halt()
	p := b.MustBuild()
	m := newMachine(p)
	if err := m.step(); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if err := m.step(); err != errHalted {
		t.Fatalf("second step err = %v, want errHalted", err)
	}
}

func TestRunStats(t *testing.T) {
	p := buildSumProgram(8)
	st, err := Run(p, Config{}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !st.Halted {
		t.Error("program should halt")
	}
	if st.Loads != 8+1 {
		t.Errorf("loads = %d, want 9", st.Loads)
	}
	if st.Stores != 8 {
		t.Errorf("stores = %d, want 8", st.Stores)
	}
	if st.Instructions == 0 || st.Branches == 0 {
		t.Error("expected nonzero instruction and branch counts")
	}
	if st.Tasks < 8 {
		t.Errorf("tasks = %d, want >= 8 (one per iteration)", st.Tasks)
	}
}

func TestRunInstructionLimit(t *testing.T) {
	p := buildSumProgram(1000)
	st, err := Run(p, Config{MaxInstructions: 100}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Instructions != 100 {
		t.Errorf("instructions = %d, want 100", st.Instructions)
	}
	if st.Halted {
		t.Error("run must not report halted when the limit stops it")
	}
}

func TestRunVisitEarlyStop(t *testing.T) {
	p := buildSumProgram(1000)
	count := 0
	st, err := Run(p, Config{}, func(*DynInst) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 10 {
		t.Errorf("visited %d instructions, want 10", count)
	}
	if st.Instructions != 10 {
		t.Errorf("stats instructions = %d, want 10", st.Instructions)
	}
}

func TestDynInstMemoryRecords(t *testing.T) {
	p := buildSumProgram(4)
	insts, _, err := collect(p)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	accAddr := p.Symbols["acc"]
	var loads, stores int
	for _, d := range insts {
		if isa.IsLoad(d.Op) {
			loads++
			if d.Addr != accAddr {
				t.Errorf("load address = %#x, want %#x", d.Addr, accAddr)
			}
		}
		if isa.IsStore(d.Op) {
			stores++
			if d.Addr != accAddr {
				t.Errorf("store address = %#x, want %#x", d.Addr, accAddr)
			}
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatal("expected loads and stores in the trace")
	}
}

func TestSeqIsDense(t *testing.T) {
	p := buildSumProgram(6)
	insts, _, err := collect(p)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	for i, d := range insts {
		if d.Seq != uint64(i) {
			t.Fatalf("instruction %d has seq %d", i, d.Seq)
		}
	}
}

func TestTaskBoundaries(t *testing.T) {
	p := buildSumProgram(5)
	insts, _, err := collect(p)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !insts[0].TaskStart {
		t.Error("first instruction must start a task")
	}
	lastTask := insts[0].TaskID
	changes := 0
	for _, d := range insts[1:] {
		if d.TaskID < lastTask {
			t.Fatal("task IDs must be non-decreasing")
		}
		if d.TaskID != lastTask {
			changes++
			if !d.TaskStart {
				t.Error("task ID change without TaskStart")
			}
		} else if d.TaskStart {
			t.Error("TaskStart set without task ID change")
		}
		lastTask = d.TaskID
	}
	if changes < 5 {
		t.Errorf("task changes = %d, want >= 5 (one per iteration)", changes)
	}
	// All instructions of a task must share the task's PC.
	taskPCs := map[uint64]uint64{}
	for _, d := range insts {
		if pc, ok := taskPCs[d.TaskID]; ok {
			if pc != d.TaskPC {
				t.Fatal("TaskPC changed within a task")
			}
		} else {
			taskPCs[d.TaskID] = d.TaskPC
		}
	}
}

func TestMaxTaskLenForcesBoundaries(t *testing.T) {
	// A long straight-line program with no task entries must still be carved
	// into tasks of at most maxTaskLen instructions.
	const n = 2*maxTaskLen + 500
	b := program.NewBuilder("straight")
	for i := 0; i < n; i++ {
		b.AddI(5, 5, 1)
	}
	b.Halt()
	p := b.MustBuild()
	insts, _, err := collect(p)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	counts := map[uint64]int{}
	for _, d := range insts {
		counts[d.TaskID]++
	}
	if len(counts) != 3 {
		t.Errorf("tasks = %d, want 3 for %d instructions", len(counts), n)
	}
	for id, n := range counts {
		if n > maxTaskLen {
			t.Errorf("task %d has %d instructions, want <= %d", id, n, maxTaskLen)
		}
	}
}

func TestCallAndReturn(t *testing.T) {
	p := buildCallProgram()
	m := newMachine(p)
	for !m.halted {
		if err := m.step(); err != nil && err != errHalted {
			t.Fatalf("Step: %v", err)
		}
	}
	if got := m.mem.ReadWord(p.Symbols["out"]); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

func TestStackDiscipline(t *testing.T) {
	b := program.NewBuilder("stack")
	b.LoadImm(5, 17)
	b.Push(5)
	b.LoadImm(5, 0)
	b.Pop(6)
	b.Halt()
	p := b.MustBuild()
	m := newMachine(p)
	for !m.halted {
		if err := m.step(); err != nil && err != errHalted {
			t.Fatalf("Step: %v", err)
		}
	}
	if got := m.regs[6]; got != 17 {
		t.Errorf("popped value = %d, want 17", got)
	}
	if got := m.regs[isa.SP]; got != int64(p.StackBase) {
		t.Errorf("stack pointer = %#x, want %#x", got, p.StackBase)
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	b := program.NewBuilder("zero")
	b.AddI(isa.Zero, isa.Zero, 99)
	b.Move(5, isa.Zero)
	b.Halt()
	p := b.MustBuild()
	m := newMachine(p)
	for !m.halted {
		if err := m.step(); err != nil && err != errHalted {
			t.Fatalf("Step: %v", err)
		}
	}
	if got := m.regs[5]; got != 0 {
		t.Errorf("r5 = %d, want 0 (zero register must not be writable)", got)
	}
}

func TestDeterminism(t *testing.T) {
	p := buildSumProgram(64)
	a, sa, err := collect(p)
	if err != nil {
		t.Fatal(err)
	}
	bb, sb, err := collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	if len(a) != len(bb) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(bb))
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], bb[i])
		}
	}
}

func TestDivisionByZeroDoesNotPanic(t *testing.T) {
	b := program.NewBuilder("div0")
	b.LoadImm(5, 10)
	b.Op3(isa.DIV, 6, 5, isa.Zero)
	b.Op3(isa.REM, 7, 5, isa.Zero)
	b.Op3(isa.FDIV, 8, 5, isa.Zero)
	b.Halt()
	p := b.MustBuild()
	if _, err := Run(p, Config{}, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// collect runs the program and returns the full dynamic instruction stream.
func collect(p *program.Program) ([]DynInst, Stats, error) {
	var out []DynInst
	st, err := Run(p, Config{}, func(d *DynInst) bool {
		out = append(out, *d)
		return true
	})
	return out, st, err
}
