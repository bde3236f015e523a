// Package program provides the static program representation executed by the
// simulators in this repository, together with a small builder/assembler used
// by the synthetic workloads to construct programs.
//
// A Program is a flat sequence of isa.Instructions plus a description of its
// statically allocated data segment and a set of task boundary annotations.
// Task annotations play the role of the Multiscalar compiler's task
// partitioning: an instruction index marked as a task entry starts a new
// Multiscalar task when control reaches it.
package program

import (
	"fmt"
	"sort"

	"memdep/internal/isa"
)

// Program is an assembled program ready for execution.
type Program struct {
	// Name identifies the program (the benchmark name for workloads).
	Name string
	// Code is the instruction sequence.  Instruction i resides at byte
	// address i*isa.InstrBytes.
	Code []isa.Instruction
	// Entry is the index of the first instruction to execute.
	Entry int
	// DataBase is the lowest byte address of the statically allocated data
	// segment.
	DataBase uint64
	// DataSize is the size of the data segment in bytes.
	DataSize uint64
	// DataInit holds initial word values for data addresses (byte address to
	// word value).  Uninitialised data reads as zero.
	DataInit map[uint64]int64
	// StackBase is the initial value of the stack pointer.  The stack grows
	// downwards.
	StackBase uint64
	// TaskEntries marks the instruction indices that begin a new Multiscalar
	// task.  The entry point is always a task entry.
	TaskEntries map[int]bool
	// Labels maps symbolic labels to instruction indices (for debugging and
	// for the trace tooling).
	Labels map[string]int
	// Symbols maps data symbol names to byte addresses.
	Symbols map[string]uint64
}

// PC returns the byte address of instruction index idx.
func (p *Program) PC(idx int) uint64 { return uint64(idx) * isa.InstrBytes }

// Index returns the instruction index of byte address pc.
func (p *Program) Index(pc uint64) int { return int(pc / isa.InstrBytes) }

// Len returns the number of static instructions in the program.
func (p *Program) Len() int { return len(p.Code) }

// Validate checks the structural integrity of the program: every branch
// target is in range, every register is architectural, the entry point and
// all task entries are valid instruction indices, and the data segment does
// not overlap the stack.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q has no code", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("program %q entry %d out of range [0,%d)", p.Name, p.Entry, len(p.Code))
	}
	for i, ins := range p.Code {
		if !ins.Op.Valid() {
			return fmt.Errorf("instruction %d: invalid op %d", i, ins.Op)
		}
		if !ins.Dst.Valid() || !ins.Src1.Valid() || !ins.Src2.Valid() {
			return fmt.Errorf("instruction %d (%v): invalid register", i, ins)
		}
		switch ins.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.J, isa.JAL:
			if ins.Target < 0 || ins.Target >= len(p.Code) {
				return fmt.Errorf("instruction %d (%v): branch target %d out of range", i, ins, ins.Target)
			}
		}
	}
	for idx := range p.TaskEntries {
		if idx < 0 || idx >= len(p.Code) {
			return fmt.Errorf("task entry %d out of range", idx)
		}
	}
	if p.DataBase+p.DataSize > p.StackBase && p.DataSize > 0 {
		// The stack grows down from StackBase; require a gap so that stack
		// frames do not silently alias statically allocated data.
		return fmt.Errorf("data segment [%#x,%#x) overlaps stack base %#x",
			p.DataBase, p.DataBase+p.DataSize, p.StackBase)
	}
	return nil
}

// StaticLoads returns the instruction indices of all load instructions.
func (p *Program) StaticLoads() []int {
	var out []int
	for i, ins := range p.Code {
		if isa.IsLoad(ins.Op) {
			out = append(out, i)
		}
	}
	return out
}

// StaticStores returns the instruction indices of all store instructions.
func (p *Program) StaticStores() []int {
	var out []int
	for i, ins := range p.Code {
		if isa.IsStore(ins.Op) {
			out = append(out, i)
		}
	}
	return out
}

// Disassemble renders the program as readable assembly, one instruction per
// line, annotated with labels and task entry markers.
func (p *Program) Disassemble() string {
	labelAt := map[int][]string{}
	for name, idx := range p.Labels {
		labelAt[idx] = append(labelAt[idx], name)
	}
	for idx := range labelAt {
		sort.Strings(labelAt[idx])
	}
	out := ""
	for i, ins := range p.Code {
		for _, l := range labelAt[i] {
			out += fmt.Sprintf("%s:\n", l)
		}
		marker := "    "
		if p.TaskEntries[i] {
			marker = " T> "
		}
		out += fmt.Sprintf("%5d%s%s\n", i, marker, ins)
	}
	return out
}
