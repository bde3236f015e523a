// Package trace contains the functional simulator.  It executes a program of
// the synthetic ISA sequentially and produces the committed dynamic
// instruction stream -- the "total order" of section 2 of the paper.  One
// pass per workload feeds multiscalar.Preprocess, whose work item both the
// unrealistic OOO window model and the Multiscalar timing simulator read;
// the trace/run job kind (RunJob) only summarises a stream for inspection.
//
// The functional simulator is the architectural reference: whatever the
// timing simulators do with speculation and squashes, the committed result
// must equal what this package computes.
package trace

import (
	"errors"
	"fmt"

	"memdep/internal/isa"
	"memdep/internal/program"
)

// DynInst describes one committed dynamic instruction.
type DynInst struct {
	// Seq is the position of the instruction in the committed (total) order,
	// starting at zero.
	Seq uint64
	// Index is the static instruction index within the program.
	Index int
	// PC is the byte address of the instruction.
	PC uint64
	// Op is the operation.
	Op isa.Op
	// Addr is the effective memory address for loads and stores.
	Addr uint64
	// Value is the value loaded or stored for memory operations, and the
	// result written for ALU operations (informational; timing models do not
	// depend on it).
	Value int64
	// Taken reports whether a branch was taken.
	Taken bool
	// NextIndex is the static index of the next committed instruction.
	NextIndex int
	// TaskID numbers the dynamic Multiscalar task this instruction belongs
	// to.  Task 0 starts at the program entry.
	TaskID uint64
	// TaskPC is the byte address of the first instruction of the task
	// (the task's identity, used by the ESYNC predictor).
	TaskPC uint64
	// TaskStart reports whether this instruction is the first of its task.
	TaskStart bool
}

// Stats summarises a completed functional run.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	TakenBranch  uint64
	Tasks        uint64
	Halted       bool
}

// Config controls functional execution.
type Config struct {
	// MaxInstructions bounds the run; 0 means unlimited.  Runs that hit the
	// bound finish without error but report Halted == false.
	MaxInstructions uint64
}

// maxTaskLen forces a task boundary after this many instructions without
// reaching a static task entry.  It models the greedy task partitioning of
// the Multiscalar compiler, which never creates unboundedly large tasks
// except for very large loop bodies (section 5.5 of the paper).
const maxTaskLen = 1024

// machine is the functional simulator state.
type machine struct {
	prog *program.Program
	// entry marks the instruction indices that begin a task: the program's
	// TaskEntries as a dense table, built once per run so a step indexes a
	// slice instead of hashing its index.
	entry   []bool
	regs    [isa.NumRegs]int64
	mem     *Memory
	pc      int
	seq     uint64
	halted  bool
	taskID  uint64
	taskPC  uint64
	taskLen int
	started bool
	// d is the record of the instruction last stepped, filled in place: Run
	// hands the visitor a pointer to it, so no record is copied.
	d DynInst
}

// errHalted is returned by step once the machine has executed HALT.
var errHalted = errors.New("trace: machine halted")

// newMachine creates a functional simulator for the program with the data
// segment initialised and the stack pointer set.
func newMachine(p *program.Program) *machine {
	m := &machine{
		prog:   p,
		entry:  make([]bool, len(p.Code)),
		mem:    NewMemory(),
		pc:     p.Entry,
		taskPC: p.PC(p.Entry),
	}
	for idx, ok := range p.TaskEntries {
		if uint(idx) < uint(len(m.entry)) {
			m.entry[idx] = ok
		}
	}
	for addr, val := range p.DataInit {
		m.mem.WriteWord(addr, val)
	}
	m.regs[isa.SP] = int64(p.StackBase)
	m.regs[isa.FP] = int64(p.StackBase)
	return m
}

func (m *machine) setReg(r isa.Reg, v int64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

// step executes one instruction and fills m.d with its dynamic record.
// After HALT has been executed, step returns errHalted.
//
// Every field of m.d is written on every step, field by field: the record
// is reused, so a field a step leaves alone would leak the previous
// instruction's value, and assigning a composite literal through the
// pointer would build and copy a whole record per instruction.
//
//memdep:hotpath
func (m *machine) step() error {
	if m.halted {
		return errHalted
	}
	idx := m.pc
	if uint(idx) >= uint(len(m.prog.Code)) {
		return fmt.Errorf("trace: pc %d out of range in %q", idx, m.prog.Name)
	}
	ins := &m.prog.Code[idx]

	taskStart := false
	if !m.started {
		taskStart = true
		m.started = true
	} else if m.entry[idx] || m.taskLen >= maxTaskLen {
		taskStart = true
		m.taskID++
	}
	if taskStart {
		m.taskPC = m.prog.PC(idx)
		m.taskLen = 0
	}
	m.taskLen++

	d := &m.d
	d.Seq = m.seq
	d.Index = idx
	d.PC = m.prog.PC(idx)
	d.Op = ins.Op
	d.Addr = 0
	d.Value = 0
	d.Taken = false
	d.TaskID = m.taskID
	d.TaskPC = m.taskPC
	d.TaskStart = taskStart

	next := idx + 1
	switch ins.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true
		next = idx
	case isa.ADD:
		d.Value = m.regs[ins.Src1] + m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.SUB:
		d.Value = m.regs[ins.Src1] - m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.AND:
		d.Value = m.regs[ins.Src1] & m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.OR:
		d.Value = m.regs[ins.Src1] | m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.XOR:
		d.Value = m.regs[ins.Src1] ^ m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.SLL:
		d.Value = m.regs[ins.Src1] << (uint64(m.regs[ins.Src2]) & 63)
		m.setReg(ins.Dst, d.Value)
	case isa.SRL:
		d.Value = int64(uint64(m.regs[ins.Src1]) >> (uint64(m.regs[ins.Src2]) & 63))
		m.setReg(ins.Dst, d.Value)
	case isa.SRA:
		d.Value = m.regs[ins.Src1] >> (uint64(m.regs[ins.Src2]) & 63)
		m.setReg(ins.Dst, d.Value)
	case isa.SLT:
		if m.regs[ins.Src1] < m.regs[ins.Src2] {
			d.Value = 1
		}
		m.setReg(ins.Dst, d.Value)
	case isa.ADDI:
		d.Value = m.regs[ins.Src1] + ins.Imm
		m.setReg(ins.Dst, d.Value)
	case isa.ANDI:
		d.Value = m.regs[ins.Src1] & ins.Imm
		m.setReg(ins.Dst, d.Value)
	case isa.ORI:
		d.Value = m.regs[ins.Src1] | ins.Imm
		m.setReg(ins.Dst, d.Value)
	case isa.XORI:
		d.Value = m.regs[ins.Src1] ^ ins.Imm
		m.setReg(ins.Dst, d.Value)
	case isa.SLLI:
		d.Value = m.regs[ins.Src1] << (uint64(ins.Imm) & 63)
		m.setReg(ins.Dst, d.Value)
	case isa.SRLI:
		d.Value = int64(uint64(m.regs[ins.Src1]) >> (uint64(ins.Imm) & 63))
		m.setReg(ins.Dst, d.Value)
	case isa.SLTI:
		if m.regs[ins.Src1] < ins.Imm {
			d.Value = 1
		}
		m.setReg(ins.Dst, d.Value)
	case isa.LUI:
		d.Value = ins.Imm << 16
		m.setReg(ins.Dst, d.Value)
	case isa.MUL:
		d.Value = m.regs[ins.Src1] * m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.DIV:
		if div := m.regs[ins.Src2]; div != 0 {
			d.Value = m.regs[ins.Src1] / div
		}
		m.setReg(ins.Dst, d.Value)
	case isa.REM:
		if div := m.regs[ins.Src2]; div != 0 {
			d.Value = m.regs[ins.Src1] % div
		}
		m.setReg(ins.Dst, d.Value)
	case isa.FADD:
		d.Value = m.regs[ins.Src1] + m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.FMUL:
		d.Value = m.regs[ins.Src1] * m.regs[ins.Src2]
		m.setReg(ins.Dst, d.Value)
	case isa.FDIV:
		if div := m.regs[ins.Src2]; div != 0 {
			d.Value = m.regs[ins.Src1] / div
		}
		m.setReg(ins.Dst, d.Value)
	case isa.LW:
		addr := alignWord(uint64(m.regs[ins.Src1] + ins.Imm))
		d.Addr = addr
		d.Value = m.mem.ReadWord(addr)
		m.setReg(ins.Dst, d.Value)
	case isa.SW:
		addr := alignWord(uint64(m.regs[ins.Src1] + ins.Imm))
		d.Addr = addr
		d.Value = m.regs[ins.Src2]
		m.mem.WriteWord(addr, d.Value)
	case isa.BEQ:
		d.Taken = m.regs[ins.Src1] == m.regs[ins.Src2]
		if d.Taken {
			next = ins.Target
		}
	case isa.BNE:
		d.Taken = m.regs[ins.Src1] != m.regs[ins.Src2]
		if d.Taken {
			next = ins.Target
		}
	case isa.BLT:
		d.Taken = m.regs[ins.Src1] < m.regs[ins.Src2]
		if d.Taken {
			next = ins.Target
		}
	case isa.BGE:
		d.Taken = m.regs[ins.Src1] >= m.regs[ins.Src2]
		if d.Taken {
			next = ins.Target
		}
	case isa.J:
		d.Taken = true
		next = ins.Target
	case isa.JAL:
		d.Taken = true
		m.setReg(ins.Dst, int64(m.prog.PC(idx+1)))
		next = ins.Target
	case isa.JR:
		d.Taken = true
		next = m.prog.Index(uint64(m.regs[ins.Src1]))
	default:
		return fmt.Errorf("trace: unimplemented op %v at index %d", ins.Op, idx)
	}

	d.NextIndex = next
	m.pc = next
	m.seq++
	return nil
}

func alignWord(addr uint64) uint64 { return addr &^ (isa.WordSize - 1) }

// Run executes the program, invoking visit for every committed instruction,
// until the machine halts, the instruction limit is reached, or visit returns
// false.  A nil visit is allowed.  The record visit receives is reused for
// the next instruction: a visitor that keeps one must copy it.
//
//memdep:hotpath
func Run(p *program.Program, cfg Config, visit func(*DynInst) bool) (Stats, error) {
	m := newMachine(p)
	d := &m.d
	var st Stats
	for cfg.MaxInstructions == 0 || st.Instructions < cfg.MaxInstructions {
		if err := m.step(); err != nil {
			return st, err
		}
		if d.Op == isa.HALT {
			// HALT terminates the run; it is not counted as committed work
			// and is not passed to the visitor.
			st.Halted = true
			return st, nil
		}
		st.Instructions++
		switch {
		case isa.IsLoad(d.Op):
			st.Loads++
		case isa.IsStore(d.Op):
			st.Stores++
		case isa.IsBranch(d.Op):
			st.Branches++
			if d.Taken {
				st.TakenBranch++
			}
		}
		if d.TaskStart {
			st.Tasks++
		}
		if visit != nil && !visit(d) {
			return st, nil
		}
	}
	return st, nil
}
