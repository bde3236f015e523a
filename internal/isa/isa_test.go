package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		Zero: "zero",
		SP:   "sp",
		FP:   "fp",
		RA:   "ra",
		5:    "r5",
		17:   "r17",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestRegValid(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		if !r.Valid() {
			t.Errorf("register %d should be valid", r)
		}
	}
	if Reg(NumRegs).Valid() {
		t.Errorf("register %d should be invalid", NumRegs)
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %v and %v share the name %q", prev, op, s)
		}
		seen[s] = op
	}
	if got := Op(200).String(); !strings.HasPrefix(got, "op(") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestOpValid(t *testing.T) {
	if !ADD.Valid() || !HALT.Valid() {
		t.Error("defined ops must be valid")
	}
	if Op(numOps).Valid() {
		t.Error("numOps must not be a valid op")
	}
}

func TestClassOfCoversAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		c := ClassOf(op)
		if c >= NumClasses {
			t.Errorf("op %v has out-of-range class %v", op, c)
		}
	}
}

func TestClassAssignments(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{ADD, ClassSimpleInt},
		{ADDI, ClassSimpleInt},
		{LUI, ClassSimpleInt},
		{MUL, ClassComplexInt},
		{DIV, ClassComplexInt},
		{FADD, ClassFloat},
		{FDIV, ClassFloat},
		{LW, ClassMemory},
		{SW, ClassMemory},
		{BEQ, ClassBranch},
		{JAL, ClassBranch},
		{JR, ClassBranch},
		{NOP, ClassOther},
		{HALT, ClassOther},
	}
	for _, c := range cases {
		if got := ClassOf(c.op); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestMemPredicates(t *testing.T) {
	if !IsLoad(LW) || IsLoad(SW) || IsLoad(ADD) {
		t.Error("IsLoad misclassifies")
	}
	if !IsStore(SW) || IsStore(LW) || IsStore(ADD) {
		t.Error("IsStore misclassifies")
	}
}

func TestBranchPredicates(t *testing.T) {
	branches := []Op{BEQ, BNE, BLT, BGE, J, JAL, JR}
	for _, op := range branches {
		if !IsBranch(op) {
			t.Errorf("IsBranch(%v) = false", op)
		}
	}
	nonBranches := []Op{ADD, LW, SW, NOP, HALT, MUL}
	for _, op := range nonBranches {
		if IsBranch(op) {
			t.Errorf("IsBranch(%v) = true", op)
		}
	}
}

func TestHasDest(t *testing.T) {
	withDest := []Op{ADD, ADDI, LUI, MUL, FADD, LW, JAL, SLT}
	for _, op := range withDest {
		if !HasDest(op) {
			t.Errorf("HasDest(%v) = false", op)
		}
	}
	withoutDest := []Op{SW, BEQ, BNE, J, JR, NOP, HALT}
	for _, op := range withoutDest {
		if HasDest(op) {
			t.Errorf("HasDest(%v) = true", op)
		}
	}
}

func TestUsesAndWrites(t *testing.T) {
	ins := Instruction{Op: ADD, Dst: 3, Src1: 4, Src2: 5}
	uses, n := ins.Uses()
	if n != 2 || uses[0] != 4 || uses[1] != 5 {
		t.Errorf("ADD uses = %v/%d", uses, n)
	}
	if d, ok := ins.Writes(); !ok || d != 3 {
		t.Errorf("ADD writes = %v/%v", d, ok)
	}

	sw := Instruction{Op: SW, Src1: 7, Src2: 8, Imm: 16}
	uses, n = sw.Uses()
	if n != 2 || uses[0] != 7 || uses[1] != 8 {
		t.Errorf("SW uses = %v/%d", uses, n)
	}
	if _, ok := sw.Writes(); ok {
		t.Error("SW must not write a register")
	}

	lw := Instruction{Op: LW, Dst: 2, Src1: 7, Imm: 8}
	uses, n = lw.Uses()
	if n != 1 || uses[0] != 7 {
		t.Errorf("LW uses = %v/%d", uses, n)
	}

	jr := Instruction{Op: JR, Src1: RA}
	uses, n = jr.Uses()
	if n != 1 || uses[0] != RA {
		t.Errorf("JR uses = %v/%d", uses, n)
	}

	j := Instruction{Op: J, Target: 12}
	if _, n := j.Uses(); n != 0 {
		t.Error("J must not read registers")
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Instruction{Op: NOP}, "nop"},
		{Instruction{Op: ADD, Dst: 1, Src1: 2, Src2: 3}, "add r1, r2, r3"},
		{Instruction{Op: ADDI, Dst: 1, Src1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Instruction{Op: LW, Dst: 5, Src1: SP, Imm: 16}, "lw r5, 16(sp)"},
		{Instruction{Op: SW, Src1: SP, Src2: 5, Imm: 16}, "sw r5, 16(sp)"},
		{Instruction{Op: BEQ, Src1: 1, Src2: 2, Target: 9}, "beq r1, r2, @9"},
		{Instruction{Op: J, Target: 3}, "j @3"},
		{Instruction{Op: JAL, Dst: RA, Target: 3}, "jal ra, @3"},
		{Instruction{Op: JR, Src1: RA}, "jr ra"},
		{Instruction{Op: LUI, Dst: 4, Imm: 10}, "lui r4, 10"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDefaultLatencies(t *testing.T) {
	lat := DefaultLatencies()
	if lat[ClassSimpleInt].Issue != 1 {
		t.Errorf("simple int latency = %d, want 1", lat[ClassSimpleInt].Issue)
	}
	if lat[ClassComplexInt].Issue <= lat[ClassSimpleInt].Issue {
		t.Error("complex int must be slower than simple int")
	}
	if lat[ClassFloat].Issue <= 1 {
		t.Error("float latency must exceed one cycle")
	}
	for c := Class(0); c < NumClasses; c++ {
		if lat[c].Issue <= 0 {
			t.Errorf("class %v has non-positive latency", c)
		}
	}
	if lat.OpLatency(DIV) <= lat.OpLatency(MUL) {
		t.Error("divide must be slower than multiply")
	}
	if lat.OpLatency(FDIV) <= lat.OpLatency(FMUL) {
		t.Error("fp divide must be slower than fp multiply")
	}
	if lat.OpLatency(ADD) != 1 {
		t.Errorf("add latency = %d, want 1", lat.OpLatency(ADD))
	}
}

func TestDefaultFUCount(t *testing.T) {
	fu := DefaultFUCount()
	if fu[ClassSimpleInt] != 2 {
		t.Errorf("simple int units = %d, want 2", fu[ClassSimpleInt])
	}
	for _, c := range []Class{ClassComplexInt, ClassFloat, ClassMemory, ClassBranch} {
		if fu[c] != 1 {
			t.Errorf("class %v units = %d, want 1", c, fu[c])
		}
	}
}

func TestClassStringTotal(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d has no name", c)
		}
	}
	if s := Class(99).String(); !strings.HasPrefix(s, "class(") {
		t.Errorf("unknown class string = %q", s)
	}
}

// Property: every operation with a destination register reports exactly that
// register via Writes, and operations without one never do.
func TestWritesConsistentWithHasDest(t *testing.T) {
	f := func(opRaw uint8, dst uint8) bool {
		op := Op(opRaw % uint8(numOps))
		ins := Instruction{Op: op, Dst: Reg(dst % NumRegs)}
		r, ok := ins.Writes()
		if HasDest(op) != ok {
			return false
		}
		if ok && r != ins.Dst {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the register slots reported by Uses are always valid registers
// when the instruction's registers are valid.
func TestUsesAreValidRegs(t *testing.T) {
	f := func(opRaw, s1, s2 uint8) bool {
		op := Op(opRaw % uint8(numOps))
		ins := Instruction{Op: op, Src1: Reg(s1 % NumRegs), Src2: Reg(s2 % NumRegs)}
		uses, n := ins.Uses()
		for i := 0; i < n; i++ {
			if !uses[i].Valid() {
				return false
			}
		}
		return n >= 0 && n <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
