// Package isa defines the instruction set of the synthetic RISC machine used
// throughout this repository.
//
// The paper evaluates its mechanism on annotated MIPS binaries produced by the
// Multiscalar compiler.  Those binaries (and the SPEC inputs they consume) are
// not available, so this package defines a small, regular load/store ISA that
// the synthetic workloads in internal/workload are written in.  The ISA is
// deliberately simple: 32 integer registers, word-addressed memory accessed
// through explicit loads and stores, and a handful of arithmetic, logic and
// control operations.  Instruction classes map onto the functional-unit
// latencies reported in Table 2 of the paper.
package isa

import "fmt"

// WordSize is the size, in bytes, of a machine word.  All memory accesses in
// the ISA are word sized and word aligned; addresses are byte addresses.
const WordSize = 8

// InstrBytes is the architectural size of one instruction.  Program counters
// advance by InstrBytes per instruction, matching the fixed-width encoding of
// the MIPS-like machine in the paper.
const InstrBytes = 4

// Reg names an architectural integer register.  R0 is hardwired to zero, as
// on MIPS; writes to it are discarded.
type Reg uint8

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

// Well-known register aliases used by the program builder and the workloads.
const (
	Zero Reg = 0  // hardwired zero
	RV   Reg = 1  // return value
	SP   Reg = 29 // stack pointer
	FP   Reg = 30 // frame pointer
	RA   Reg = 31 // return address
)

// String implements fmt.Stringer for registers.
func (r Reg) String() string {
	switch r {
	case Zero:
		return "zero"
	case SP:
		return "sp"
	case FP:
		return "fp"
	case RA:
		return "ra"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op enumerates the operations of the ISA.
type Op uint8

// The operations.  Arithmetic operations are three-register; the *I variants
// take a sign-extended immediate in place of the second source.
const (
	NOP Op = iota

	// Simple integer ALU.
	ADD
	SUB
	AND
	OR
	XOR
	SLL // shift left logical
	SRL // shift right logical
	SRA // shift right arithmetic
	SLT // set if less than (signed)
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SLTI
	LUI // load upper immediate (dst = imm << 16)

	// Complex integer.
	MUL
	DIV
	REM

	// Floating point (modelled on the integer register file; only the
	// latency class differs -- the workloads use these for the FP kernels).
	FADD
	FMUL
	FDIV

	// Memory.
	LW // load word:  dst = mem[src1 + imm]
	SW // store word: mem[src1 + imm] = src2

	// Control.
	BEQ  // branch if src1 == src2
	BNE  // branch if src1 != src2
	BLT  // branch if src1 <  src2 (signed)
	BGE  // branch if src1 >= src2 (signed)
	J    // unconditional jump
	JAL  // jump and link (dst <- return address, conventionally RA)
	JR   // jump register (to src1), used for returns and indirect calls
	HALT // stop the machine

	numOps
)

var opNames = [...]string{
	NOP:  "nop",
	ADD:  "add",
	SUB:  "sub",
	AND:  "and",
	OR:   "or",
	XOR:  "xor",
	SLL:  "sll",
	SRL:  "srl",
	SRA:  "sra",
	SLT:  "slt",
	ADDI: "addi",
	ANDI: "andi",
	ORI:  "ori",
	XORI: "xori",
	SLLI: "slli",
	SRLI: "srli",
	SLTI: "slti",
	LUI:  "lui",
	MUL:  "mul",
	DIV:  "div",
	REM:  "rem",
	FADD: "fadd",
	FMUL: "fmul",
	FDIV: "fdiv",
	LW:   "lw",
	SW:   "sw",
	BEQ:  "beq",
	BNE:  "bne",
	BLT:  "blt",
	BGE:  "bge",
	J:    "j",
	JAL:  "jal",
	JR:   "jr",
	HALT: "halt",
}

// String implements fmt.Stringer for operations.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// Class groups operations by the functional unit that executes them.  The
// classes correspond to the functional units of the Multiscalar processing
// unit described in section 5.2 of the paper: 2 simple integer units, 1
// complex integer unit, 1 floating-point unit, 1 branch unit and 1 memory
// unit.
type Class uint8

// The instruction classes.
const (
	ClassSimpleInt Class = iota
	ClassComplexInt
	ClassFloat
	ClassMemory
	ClassBranch
	ClassOther // NOP, HALT

	NumClasses
)

var classNames = [...]string{
	ClassSimpleInt:  "simple-int",
	ClassComplexInt: "complex-int",
	ClassFloat:      "float",
	ClassMemory:     "memory",
	ClassBranch:     "branch",
	ClassOther:      "other",
}

// String implements fmt.Stringer for instruction classes.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the functional-unit class of an operation.
func ClassOf(op Op) Class {
	switch op {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT,
		ADDI, ANDI, ORI, XORI, SLLI, SRLI, SLTI, LUI:
		return ClassSimpleInt
	case MUL, DIV, REM:
		return ClassComplexInt
	case FADD, FMUL, FDIV:
		return ClassFloat
	case LW, SW:
		return ClassMemory
	case BEQ, BNE, BLT, BGE, J, JAL, JR:
		return ClassBranch
	default:
		return ClassOther
	}
}

// IsLoad reports whether op reads memory.
func IsLoad(op Op) bool { return op == LW }

// IsStore reports whether op writes memory.
func IsStore(op Op) bool { return op == SW }

// IsBranch reports whether op may redirect control flow.
func IsBranch(op Op) bool {
	switch op {
	case BEQ, BNE, BLT, BGE, J, JAL, JR:
		return true
	}
	return false
}

// HasDest reports whether op writes a destination register.
func HasDest(op Op) bool {
	switch op {
	case SW, BEQ, BNE, BLT, BGE, J, JR, NOP, HALT:
		return false
	}
	return op.Valid()
}

// Instruction is one static instruction of a program.  The interpretation of
// the fields depends on the operation:
//
//	ALU reg:   Dst = Src1 op Src2
//	ALU imm:   Dst = Src1 op Imm
//	LUI:       Dst = Imm << 16
//	LW:        Dst = mem[Src1 + Imm]
//	SW:        mem[Src1 + Imm] = Src2
//	BEQ/...:   if Src1 cmp Src2 goto Target
//	J/JAL:     goto Target (JAL also writes Dst = PC + InstrBytes)
//	JR:        goto Src1
//
// Target is an instruction index into the containing program (not a byte
// address); the assembler in internal/program resolves labels to indices.
type Instruction struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	Target int
}

// Uses returns the source registers read by the instruction.  The second
// return value reports how many of the two slots are meaningful.
func (ins Instruction) Uses() ([2]Reg, int) {
	switch ins.Op {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, MUL, DIV, REM, FADD, FMUL, FDIV,
		BEQ, BNE, BLT, BGE:
		return [2]Reg{ins.Src1, ins.Src2}, 2
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SLTI, LW, JR:
		return [2]Reg{ins.Src1}, 1
	case SW:
		return [2]Reg{ins.Src1, ins.Src2}, 2
	case LUI, J, JAL, NOP, HALT:
		return [2]Reg{}, 0
	default:
		return [2]Reg{}, 0
	}
}

// Writes returns the destination register written by the instruction and
// whether there is one.
func (ins Instruction) Writes() (Reg, bool) {
	if !HasDest(ins.Op) {
		return 0, false
	}
	return ins.Dst, true
}

// String renders the instruction in a compact assembly-like syntax.
func (ins Instruction) String() string {
	switch ins.Op {
	case NOP, HALT:
		return ins.Op.String()
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, MUL, DIV, REM, FADD, FMUL, FDIV:
		return fmt.Sprintf("%s %s, %s, %s", ins.Op, ins.Dst, ins.Src1, ins.Src2)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SLTI:
		return fmt.Sprintf("%s %s, %s, %d", ins.Op, ins.Dst, ins.Src1, ins.Imm)
	case LUI:
		return fmt.Sprintf("lui %s, %d", ins.Dst, ins.Imm)
	case LW:
		return fmt.Sprintf("lw %s, %d(%s)", ins.Dst, ins.Imm, ins.Src1)
	case SW:
		return fmt.Sprintf("sw %s, %d(%s)", ins.Src2, ins.Imm, ins.Src1)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s %s, %s, @%d", ins.Op, ins.Src1, ins.Src2, ins.Target)
	case J:
		return fmt.Sprintf("j @%d", ins.Target)
	case JAL:
		return fmt.Sprintf("jal %s, @%d", ins.Dst, ins.Target)
	case JR:
		return fmt.Sprintf("jr %s", ins.Src1)
	default:
		return fmt.Sprintf("%s ?", ins.Op)
	}
}
