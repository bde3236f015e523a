package program

import (
	"strings"
	"testing"

	"memdep/internal/isa"
)

func buildCountdown(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("countdown")
	arr := b.AllocWords("arr", 8)
	b.InitWord(arr, 42)
	b.LoadImm(10, 4)      // limit
	b.LoadAddr(11, "arr") // base pointer
	b.Loop(12, 10, true, func() {
		b.SllI(13, 12, 3) // byte offset
		b.Add(13, 13, 11)
		b.Store(12, 13, 0)
		b.Load(14, 13, 0)
	})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderBasicProgram(t *testing.T) {
	p := buildCountdown(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Len() == 0 {
		t.Fatal("program has no code")
	}
	if !p.TaskEntries[p.Entry] {
		t.Error("entry must be a task entry")
	}
	if len(p.StaticLoads()) == 0 || len(p.StaticStores()) == 0 {
		t.Error("expected at least one load and one store")
	}
	if got := p.Symbols["arr"]; got != DefaultDataBase {
		t.Errorf("arr symbol = %#x, want %#x", got, DefaultDataBase)
	}
	if p.DataSize != 8*isa.WordSize {
		t.Errorf("data size = %d, want %d", p.DataSize, 8*isa.WordSize)
	}
	if p.DataInit[p.Symbols["arr"]] != 42 {
		t.Error("data initialisation lost")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jump("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined label")
	} else if !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("error %q does not mention the label", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Op3(isa.NOP, 0, 0, 0)
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for duplicate label")
	}
}

func TestBuilderDuplicateSymbol(t *testing.T) {
	b := NewBuilder("dupsym")
	b.AllocWords("d", 1)
	b.AllocWords("d", 1)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for duplicate data symbol")
	}
}

func TestBuilderUndefinedSymbol(t *testing.T) {
	b := NewBuilder("nosym")
	b.LoadAddr(5, "missing")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined data symbol")
	}
}

func TestBuilderEntryLabel(t *testing.T) {
	b := NewBuilder("entry")
	b.Label("data_setup")
	b.Op3(isa.NOP, 0, 0, 0)
	b.Halt()
	b.Label("main")
	b.Op3(isa.NOP, 0, 0, 0)
	b.Halt()
	b.SetEntry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Entry != p.Labels["main"] {
		t.Errorf("entry = %d, want %d", p.Entry, p.Labels["main"])
	}
	if !p.TaskEntries[p.Entry] {
		t.Error("entry label must be marked as task entry")
	}
}

func TestBuilderUndefinedEntry(t *testing.T) {
	b := NewBuilder("badentry")
	b.Halt()
	b.SetEntry("main")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined entry label")
	}
}

func TestValidateRejectsBadTarget(t *testing.T) {
	p := &Program{
		Name:      "bad",
		Code:      []isa.Instruction{{Op: isa.J, Target: 99}},
		StackBase: DefaultStackBase,
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for out-of-range branch target")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for empty program")
	}
}

func TestValidateRejectsDataStackOverlap(t *testing.T) {
	p := &Program{
		Name:      "overlap",
		Code:      []isa.Instruction{{Op: isa.HALT}},
		DataBase:  100,
		DataSize:  DefaultStackBase,
		StackBase: DefaultStackBase,
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for data/stack overlap")
	}
}

func TestPCIndexRoundTrip(t *testing.T) {
	p := buildCountdown(t)
	for i := 0; i < p.Len(); i++ {
		if got := p.Index(p.PC(i)); got != i {
			t.Fatalf("Index(PC(%d)) = %d", i, got)
		}
	}
}

func TestLoadImmRanges(t *testing.T) {
	// LoadImm must produce code for small, 32-bit and 64-bit constants.
	values := []int64{0, 1, -1, 1234, -20000, 65536, 1 << 20, 0x1234_5678, 0x7fff_0000, 1 << 40}
	for _, v := range values {
		b := NewBuilder("imm")
		b.LoadImm(5, v)
		b.Halt()
		if _, err := b.Build(); err != nil {
			t.Errorf("LoadImm(%d): %v", v, err)
		}
	}
}

func TestDisassembleMentionsLabelsAndTasks(t *testing.T) {
	b := NewBuilder("dis")
	b.Label("main")
	b.TaskEntry()
	b.AddI(1, isa.Zero, 7)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	d := p.Disassemble()
	if !strings.Contains(d, "main:") {
		t.Errorf("disassembly missing label:\n%s", d)
	}
	if !strings.Contains(d, "T>") {
		t.Errorf("disassembly missing task marker:\n%s", d)
	}
	if !strings.Contains(d, "addi r1, zero, 7") {
		t.Errorf("disassembly missing instruction:\n%s", d)
	}
}

func TestPushPopSymmetry(t *testing.T) {
	b := NewBuilder("stack")
	b.Push(5)
	b.Pop(6)
	b.Push(isa.RA)
	b.Pop(isa.RA)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Push/Pop pairs are 2 instructions each; 8 + halt total.
	if p.Len() != 9 {
		t.Errorf("program length = %d, want 9", p.Len())
	}
}

func TestFuncEmitsTaskEntryAndReturn(t *testing.T) {
	b := NewBuilder("fn")
	b.Jump("main")
	b.Func("callee", func() {
		b.AddI(isa.RV, isa.Zero, 1)
	})
	b.Label("main")
	b.Call("callee")
	b.Halt()
	b.SetEntry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	calleeIdx := p.Labels["callee"]
	if !p.TaskEntries[calleeIdx] {
		t.Error("function label must be a task entry")
	}
	// The instruction before "main" must be the function's return.
	ret := p.Code[p.Labels["main"]-1]
	if ret.Op != isa.JR || ret.Src1 != isa.RA {
		t.Errorf("expected jr ra before main, got %v", ret)
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder("panic")
	b.Jump("missing")
	b.MustBuild()
}

func TestLoopStructure(t *testing.T) {
	b := NewBuilder("loop")
	b.LoadImm(10, 3)
	bodyCount := 0
	b.Loop(11, 10, false, func() {
		bodyCount++
		b.Op3(isa.NOP, 0, 0, 0)
	})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if bodyCount != 1 {
		t.Errorf("loop body emitted %d times statically, want 1", bodyCount)
	}
	// The loop must contain a backward jump.
	backward := false
	for i, ins := range p.Code {
		if ins.Op == isa.J && ins.Target < i {
			backward = true
		}
	}
	if !backward {
		t.Error("loop did not produce a backward jump")
	}
}
