package program

import (
	"fmt"

	"memdep/internal/isa"
)

// DefaultStackBase is the initial stack pointer used by assembled programs.
// The data segment is allocated upwards from DefaultDataBase and must stay
// below the stack.
const (
	DefaultDataBase  uint64 = 0x0001_0000
	DefaultStackBase uint64 = 0x7fff_0000
)

// Builder incrementally constructs a Program.  It supports forward label
// references (resolved at Build time), named data allocation and task entry
// annotations.  The zero value is not usable; call NewBuilder.
type Builder struct {
	name        string
	code        []isa.Instruction
	fixups      []fixup
	labels      map[string]int
	symbols     map[string]uint64
	dataInit    map[uint64]int64
	dataBase    uint64
	dataNext    uint64
	stackBase   uint64
	taskEntries map[int]bool
	entryLabel  string
	errs        []error
	// taskLoopDepth tracks the nesting depth of task-per-iteration loops so
	// that each level uses its own carry register (see Loop).
	taskLoopDepth int
}

type fixup struct {
	instr int    // index of the instruction whose Target needs patching
	label string // label the target refers to
}

// NewBuilder creates a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:        name,
		labels:      map[string]int{},
		symbols:     map[string]uint64{},
		dataInit:    map[uint64]int64{},
		dataBase:    DefaultDataBase,
		dataNext:    DefaultDataBase,
		stackBase:   DefaultStackBase,
		taskEntries: map[int]bool{},
	}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Here returns the index of the next instruction to be emitted.
func (b *Builder) Here() int { return len(b.code) }

// Label defines a label at the current position.  Defining the same label
// twice is an error reported at Build time.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errorf("label %q defined twice", name)
		return
	}
	b.labels[name] = len(b.code)
}

// TaskEntry marks the current position as the start of a Multiscalar task.
func (b *Builder) TaskEntry() {
	b.taskEntries[len(b.code)] = true
}

// SetEntry sets the program entry point to the given label.  If never called,
// execution starts at instruction 0.
func (b *Builder) SetEntry(label string) { b.entryLabel = label }

// Alloc reserves size bytes of zero-initialised data, rounded up to a whole
// number of words, under the given symbol name and returns its base address.
func (b *Builder) Alloc(symbol string, size uint64) uint64 {
	if size == 0 {
		size = isa.WordSize
	}
	if rem := size % isa.WordSize; rem != 0 {
		size += isa.WordSize - rem
	}
	addr := b.dataNext
	b.dataNext += size
	if symbol != "" {
		if _, dup := b.symbols[symbol]; dup {
			b.errorf("data symbol %q defined twice", symbol)
		}
		b.symbols[symbol] = addr
	}
	return addr
}

// AllocWords reserves n words of data under symbol and returns the base
// address.
func (b *Builder) AllocWords(symbol string, n int) uint64 {
	return b.Alloc(symbol, uint64(n)*isa.WordSize)
}

// InitWord sets the initial value of the word at addr.
func (b *Builder) InitWord(addr uint64, value int64) {
	b.dataInit[addr] = value
}

// Symbol returns the address previously allocated under name.  Referencing an
// unknown symbol is an error reported at Build time.
func (b *Builder) Symbol(name string) uint64 {
	addr, ok := b.symbols[name]
	if !ok {
		b.errorf("reference to undefined data symbol %q", name)
	}
	return addr
}

// emit appends an instruction and returns its index.
func (b *Builder) emit(ins isa.Instruction) int {
	b.code = append(b.code, ins)
	return len(b.code) - 1
}

// --- raw instruction emitters -------------------------------------------------

// Halt emits a halt.
func (b *Builder) Halt() { b.emit(isa.Instruction{Op: isa.HALT}) }

// Op3 emits a three-register ALU operation dst = src1 op src2.
func (b *Builder) Op3(op isa.Op, dst, src1, src2 isa.Reg) {
	b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: src2})
}

// OpI emits an immediate ALU operation dst = src1 op imm.
func (b *Builder) OpI(op isa.Op, dst, src1 isa.Reg, imm int64) {
	b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Imm: imm})
}

// Add emits dst = src1 + src2.
func (b *Builder) Add(dst, src1, src2 isa.Reg) { b.Op3(isa.ADD, dst, src1, src2) }

// Sub emits dst = src1 - src2.
func (b *Builder) Sub(dst, src1, src2 isa.Reg) { b.Op3(isa.SUB, dst, src1, src2) }

// Mul emits dst = src1 * src2.
func (b *Builder) Mul(dst, src1, src2 isa.Reg) { b.Op3(isa.MUL, dst, src1, src2) }

// And emits dst = src1 & src2.
func (b *Builder) And(dst, src1, src2 isa.Reg) { b.Op3(isa.AND, dst, src1, src2) }

// Or emits dst = src1 | src2.
func (b *Builder) Or(dst, src1, src2 isa.Reg) { b.Op3(isa.OR, dst, src1, src2) }

// Xor emits dst = src1 ^ src2.
func (b *Builder) Xor(dst, src1, src2 isa.Reg) { b.Op3(isa.XOR, dst, src1, src2) }

// FAdd emits a floating-point-class add.
func (b *Builder) FAdd(dst, src1, src2 isa.Reg) { b.Op3(isa.FADD, dst, src1, src2) }

// FMul emits a floating-point-class multiply.
func (b *Builder) FMul(dst, src1, src2 isa.Reg) { b.Op3(isa.FMUL, dst, src1, src2) }

// AddI emits dst = src + imm.
func (b *Builder) AddI(dst, src isa.Reg, imm int64) { b.OpI(isa.ADDI, dst, src, imm) }

// AndI emits dst = src & imm.
func (b *Builder) AndI(dst, src isa.Reg, imm int64) { b.OpI(isa.ANDI, dst, src, imm) }

// OrI emits dst = src | imm.
func (b *Builder) OrI(dst, src isa.Reg, imm int64) { b.OpI(isa.ORI, dst, src, imm) }

// SllI emits dst = src << imm.
func (b *Builder) SllI(dst, src isa.Reg, imm int64) { b.OpI(isa.SLLI, dst, src, imm) }

// SrlI emits dst = src >> imm (logical).
func (b *Builder) SrlI(dst, src isa.Reg, imm int64) { b.OpI(isa.SRLI, dst, src, imm) }

// LoadImm loads an arbitrary 64-bit constant into dst using LUI/ORI/shift
// sequences.  Small constants use a single ADDI from the zero register.
func (b *Builder) LoadImm(dst isa.Reg, value int64) {
	if value >= -32768 && value < 32768 {
		b.AddI(dst, isa.Zero, value)
		return
	}
	// Build the constant 16 bits at a time.  LUI writes imm<<16; subsequent
	// shifts and ORs assemble wider values.
	if value >= 0 && value < (1<<32) {
		b.OpI(isa.LUI, dst, isa.Zero, (value>>16)&0xffff)
		b.OrI(dst, dst, value&0xffff)
		return
	}
	b.OpI(isa.LUI, dst, isa.Zero, (value>>48)&0xffff)
	b.OrI(dst, dst, (value>>32)&0xffff)
	b.SllI(dst, dst, 16)
	b.OrI(dst, dst, (value>>16)&0xffff)
	b.SllI(dst, dst, 16)
	b.OrI(dst, dst, value&0xffff)
}

// LoadAddr loads the address of a data symbol into dst.
func (b *Builder) LoadAddr(dst isa.Reg, symbol string) {
	b.LoadImm(dst, int64(b.Symbol(symbol)))
}

// Move emits dst = src.
func (b *Builder) Move(dst, src isa.Reg) { b.AddI(dst, src, 0) }

// Load emits dst = mem[base + off].
func (b *Builder) Load(dst, base isa.Reg, off int64) {
	b.emit(isa.Instruction{Op: isa.LW, Dst: dst, Src1: base, Imm: off})
}

// Store emits mem[base + off] = src.
func (b *Builder) Store(src, base isa.Reg, off int64) {
	b.emit(isa.Instruction{Op: isa.SW, Src1: base, Src2: src, Imm: off})
}

// Branch emits a conditional branch to label.
func (b *Builder) Branch(op isa.Op, src1, src2 isa.Reg, label string) {
	idx := b.emit(isa.Instruction{Op: op, Src1: src1, Src2: src2})
	b.fixups = append(b.fixups, fixup{instr: idx, label: label})
}

// Beq emits branch-if-equal to label.
func (b *Builder) Beq(src1, src2 isa.Reg, label string) { b.Branch(isa.BEQ, src1, src2, label) }

// Bge emits branch-if-greater-or-equal to label.
func (b *Builder) Bge(src1, src2 isa.Reg, label string) { b.Branch(isa.BGE, src1, src2, label) }

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) {
	idx := b.emit(isa.Instruction{Op: isa.J})
	b.fixups = append(b.fixups, fixup{instr: idx, label: label})
}

// Call emits a jump-and-link to label, writing the return address to RA.
func (b *Builder) Call(label string) {
	idx := b.emit(isa.Instruction{Op: isa.JAL, Dst: isa.RA})
	b.fixups = append(b.fixups, fixup{instr: idx, label: label})
}

// Ret emits a return through RA.
func (b *Builder) Ret() {
	b.emit(isa.Instruction{Op: isa.JR, Src1: isa.RA})
}

// --- structured helpers -------------------------------------------------------

// loopCarryRegs are the registers the builder uses to carry the induction
// variable of task-per-iteration loops across iterations.  The update of the
// carry register is hoisted to the top of the loop body so that the next
// iteration's task does not have to wait for the end of the current one --
// this mirrors the induction-variable hoisting the Multiscalar compiler
// performs so that consecutive loop-iteration tasks can overlap.  RV and FP
// are free for this purpose by convention: RV is written only after all loops
// finish, and FP is never used by the synthetic workloads.
var loopCarryRegs = [...]isa.Reg{isa.FP, isa.RV}

// Loop emits a counted loop: the body runs with the counter register holding
// the iteration index (0, 1, ..., limit-1) and repeats until the counter
// reaches the value in the limit register.  Each iteration is marked as a
// task entry when taskPerIteration is true, mirroring the per-iteration task
// partitioning the Multiscalar compiler applies to small loop bodies; for
// such loops the loop-carried induction update is hoisted to the top of the
// iteration (using a dedicated carry register) so that consecutive tasks are
// not serialised on the counter.  The body must not write the counter, the
// limit, or the carry registers (RV, FP).
func (b *Builder) Loop(counter, limit isa.Reg, taskPerIteration bool, body func()) {
	head := fmt.Sprintf(".L%d_head", len(b.code))
	done := fmt.Sprintf(".L%d_done", len(b.code))
	hoist := taskPerIteration && b.taskLoopDepth < len(loopCarryRegs)
	if hoist {
		carry := loopCarryRegs[b.taskLoopDepth]
		b.taskLoopDepth++
		b.AddI(carry, isa.Zero, 0)
		b.Label(head)
		b.TaskEntry()
		b.Move(counter, carry)      // counter = i (reads the early-written carry)
		b.Bge(counter, limit, done) // exit check
		b.AddI(carry, carry, 1)     // carry = i+1, available at the top of the task
		body()
		b.Jump(head)
		b.Label(done)
		b.taskLoopDepth--
		return
	}
	b.AddI(counter, isa.Zero, 0)
	b.Label(head)
	if taskPerIteration {
		b.TaskEntry()
	}
	b.Bge(counter, limit, done)
	body()
	b.AddI(counter, counter, 1)
	b.Jump(head)
	b.Label(done)
}

// Func defines a leaf-callable function: a label, a task entry, the body and
// a return.  The body is responsible for its own stack discipline.
func (b *Builder) Func(name string, body func()) {
	b.Label(name)
	b.TaskEntry()
	body()
	b.Ret()
}

// Push spills a register to the stack.
func (b *Builder) Push(r isa.Reg) {
	b.AddI(isa.SP, isa.SP, -isa.WordSize)
	b.Store(r, isa.SP, 0)
}

// Pop restores a register from the stack.
func (b *Builder) Pop(r isa.Reg) {
	b.Load(r, isa.SP, 0)
	b.AddI(isa.SP, isa.SP, isa.WordSize)
}

// Build resolves labels and returns the assembled program.  It returns an
// error describing the first problem found if the program is malformed.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, f.label)
		}
		b.code[f.instr].Target = target
	}
	entry := 0
	if b.entryLabel != "" {
		idx, ok := b.labels[b.entryLabel]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined entry label %q", b.name, b.entryLabel)
		}
		entry = idx
	}
	taskEntries := make(map[int]bool, len(b.taskEntries)+1)
	for k, v := range b.taskEntries {
		if v {
			taskEntries[k] = true
		}
	}
	taskEntries[entry] = true
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	symbols := make(map[string]uint64, len(b.symbols))
	for k, v := range b.symbols {
		symbols[k] = v
	}
	dataInit := make(map[uint64]int64, len(b.dataInit))
	for k, v := range b.dataInit {
		dataInit[k] = v
	}
	p := &Program{
		Name:        b.name,
		Code:        append([]isa.Instruction(nil), b.code...),
		Entry:       entry,
		DataBase:    b.dataBase,
		DataSize:    b.dataNext - b.dataBase,
		DataInit:    dataInit,
		StackBase:   b.stackBase,
		TaskEntries: taskEntries,
		Labels:      labels,
		Symbols:     symbols,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is like Build but panics on error.  It is intended for the
// workload constructors, whose programs are fixed at compile time and whose
// assembly errors are programming bugs.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("program %q failed to build: %v", b.name, err))
	}
	return p
}
