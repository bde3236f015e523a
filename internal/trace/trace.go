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

// IsLoad reports whether the dynamic instruction is a load.
func (d DynInst) IsLoad() bool { return isa.IsLoad(d.Op) }

// IsStore reports whether the dynamic instruction is a store.
func (d DynInst) IsStore() bool { return isa.IsStore(d.Op) }

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

// Machine is the functional simulator state.
type Machine struct {
	prog    *program.Program
	regs    [isa.NumRegs]int64
	mem     *Memory
	pc      int
	seq     uint64
	halted  bool
	taskID  uint64
	taskPC  uint64
	taskLen int
	started bool
}

// ErrHalted is returned by Step once the machine has executed HALT.
var ErrHalted = errors.New("trace: machine halted")

// NewMachine creates a functional simulator for the program with the data
// segment initialised and the stack pointer set.
func NewMachine(p *program.Program) *Machine {
	m := &Machine{
		prog:   p,
		mem:    NewMemory(),
		pc:     p.Entry,
		taskPC: p.PC(p.Entry),
	}
	for addr, val := range p.DataInit {
		m.mem.WriteWord(addr, val)
	}
	m.regs[isa.SP] = int64(p.StackBase)
	m.regs[isa.FP] = int64(p.StackBase)
	return m
}

func (m *Machine) setReg(r isa.Reg, v int64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

// Step executes one instruction and returns its dynamic record.  After HALT
// has been executed, Step returns ErrHalted.
func (m *Machine) Step() (DynInst, error) {
	if m.halted {
		return DynInst{}, ErrHalted
	}
	if m.pc < 0 || m.pc >= m.prog.Len() {
		return DynInst{}, fmt.Errorf("trace: pc %d out of range in %q", m.pc, m.prog.Name)
	}

	idx := m.pc
	ins := m.prog.Code[idx]

	taskStart := false
	if !m.started {
		taskStart = true
		m.started = true
	} else if m.prog.IsTaskEntry(idx) || m.taskLen >= maxTaskLen {
		taskStart = true
		m.taskID++
	}
	if taskStart {
		m.taskPC = m.prog.PC(idx)
		m.taskLen = 0
	}
	m.taskLen++

	d := DynInst{
		Seq:       m.seq,
		Index:     idx,
		PC:        m.prog.PC(idx),
		Op:        ins.Op,
		TaskID:    m.taskID,
		TaskPC:    m.taskPC,
		TaskStart: taskStart,
	}

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
		return DynInst{}, fmt.Errorf("trace: unimplemented op %v at index %d", ins.Op, idx)
	}

	d.NextIndex = next
	m.pc = next
	m.seq++
	return d, nil
}

func alignWord(addr uint64) uint64 { return addr &^ (isa.WordSize - 1) }

// Run executes the program, invoking visit for every committed instruction,
// until the machine halts, the instruction limit is reached, or visit returns
// false.  A nil visit is allowed.
func Run(p *program.Program, cfg Config, visit func(DynInst) bool) (Stats, error) {
	m := NewMachine(p)
	var st Stats
	for {
		if cfg.MaxInstructions > 0 && st.Instructions >= cfg.MaxInstructions {
			return st, nil
		}
		d, err := m.Step()
		if err == ErrHalted {
			st.Halted = true
			return st, nil
		}
		if err != nil {
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
		case d.IsLoad():
			st.Loads++
		case d.IsStore():
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
}
