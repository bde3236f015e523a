// Package multiscalar implements a timing simulator for a Multiscalar
// processor in the style of the evaluation platform of section 5 of the
// paper: a number of processing units (stages) execute consecutive tasks of a
// sequential program concurrently, inter-task register values are forwarded
// over a unidirectional ring, memory accesses go through a banked data cache
// and an address resolution buffer, and inter-task memory dependences are
// speculated according to a configurable policy (internal/policy).
//
// The simulator is trace driven: the committed dynamic instruction stream of
// the functional simulator (internal/trace) is first preprocessed into tasks
// with resolved register and memory producers (Preprocess), and the timing
// model then replays that stream under different processor configurations and
// speculation policies (Simulate).  The committed result is by construction
// identical across policies -- only the timing differs -- mirroring the
// paper's methodology of comparing policies on the same binaries and inputs.
package multiscalar

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"memdep/internal/isa"
	"memdep/internal/memdep"
	"memdep/internal/program"
	"memdep/internal/trace"
)

// inst flag bits.
const (
	flagLoad  = 1 << 0
	flagStore = 1 << 1
)

// inst is one dynamic instruction prepared for timing simulation.  Producers
// are global instruction indices into WorkItem.insts, -1 meaning "no producer
// inside the analysed stream" (the value is available at program start).  A
// producer always precedes its consumer.  The record holds no pointers, so a
// work item's instruction array is one pointer-free allocation the garbage
// collector never scans.
//
//memdep:soa
type inst struct {
	pc   uint64
	addr uint64

	// src holds the producers of the nSrc register sources.
	src [2]int32
	// memProd is the most recent store (in program order) to the same
	// address, when the instruction is a load and such a store exists.
	memProd int32
	// memTask is memProd's task: the core asks whether that task is still in
	// flight, which a bare instruction index cannot answer in O(1).
	memTask int32
	// loadOrd is the load's ordinal within its task (0-based, ascending
	// instruction order); it indexes the simulator's per-task loadRecord
	// slice.  Only meaningful for loads.
	loadOrd int32
	// addrID numbers addr densely within the work item, in order of first
	// appearance over loads and stores, so the core's ARB indexes arrays
	// instead of hashing addresses.  Only meaningful for loads and stores.
	addrID int32
	// prevMem is the previous load or store to the same address, -1 for
	// the first; the encoding refers to it instead of repeating the
	// address.  Only meaningful for loads and stores.
	prevMem int32

	op    isa.Op
	class isa.Class
	flags uint8
	nSrc  uint8
}

func (r *inst) isLoad() bool  { return r.flags&flagLoad != 0 }
func (r *inst) isStore() bool { return r.flags&flagStore != 0 }

// task is one dynamic Multiscalar task: the window [start, end) of the work
// item's instruction array.
//
//memdep:soa
type task struct {
	pc     uint64 // task start PC
	start  int32
	end    int32
	loads  int32
	stores int32
}

// WorkItem is a preprocessed committed instruction stream, ready to be
// simulated under any processor configuration.  It is immutable once built
// and can be shared by concurrent simulations.
type WorkItem struct {
	// Name is the benchmark name.
	Name string
	// Instructions is the number of committed instructions.
	Instructions uint64
	// Loads and Stores count committed memory operations.
	Loads  uint64
	Stores uint64

	insts []inst
	tasks []task
	// addrs is the number of distinct data addresses, the range of
	// inst.addrID.
	addrs int
}

// Tasks returns the number of dynamic tasks.
func (w *WorkItem) Tasks() int { return len(w.tasks) }

// TaskLen returns the number of instructions of dynamic task i.
func (w *WorkItem) TaskLen(i int) int { return int(w.tasks[i].end - w.tasks[i].start) }

// Dependences yields, in stream order, every load whose most recent store to
// the same address is in the stream: the static (load PC, store PC) pair and
// the distance from the store to the load in the committed order (at least
// 1).
func (w *WorkItem) Dependences() iter.Seq2[memdep.PairKey, int] {
	return func(yield func(memdep.PairKey, int) bool) {
		for i := range w.insts {
			r := &w.insts[i]
			if r.memProd >= 0 && !yield(memdep.PairKey{LoadPC: r.pc, StorePC: w.insts[r.memProd].pc}, i-int(r.memProd)) {
				return
			}
		}
	}
}

// AvgTaskSize returns the average dynamic task size in instructions.
func (w *WorkItem) AvgTaskSize() float64 {
	if len(w.tasks) == 0 {
		return 0
	}
	return float64(w.Instructions) / float64(len(w.tasks))
}

// ErrTooManyInstructions reports a committed stream longer than a work item
// can index: producers are int32 instruction indices.
var ErrTooManyInstructions = errors.New("multiscalar: committed stream exceeds the work-item instruction limit")

// instLimit is the longest stream Preprocess accepts.  It is a variable only
// so a test can reach the limit without committing two billion instructions.
var instLimit = math.MaxInt32

// lastAccess is the most recent store to one address and its task, and the
// most recent load or store to it (each -1 before the first).
type lastAccess struct {
	store int32
	task  int32
	mem   int32
}

// prepScratch is Preprocess's build state.  The stream is built into these
// growable buffers and copied out at its exact length, so a work item owns
// one instruction allocation with no growth slack, and a warm process builds
// without regrowing anything.
//
//memdep:resettable
type prepScratch struct {
	insts []inst
	tasks []task
	// ids numbers the addresses in order of first appearance; last is
	// indexed by address id.
	ids  map[uint64]int32
	last []lastAccess
}

// Reset empties the scratch, keeping its capacity.
func (b *prepScratch) Reset() {
	b.insts = b.insts[:0]
	b.tasks = b.tasks[:0]
	clear(b.ids)
	b.last = b.last[:0]
}

// id returns the address's id, numbering the address on its first
// appearance.
func (b *prepScratch) id(addr uint64) int32 {
	id, ok := b.ids[addr]
	if !ok {
		id = int32(len(b.ids))
		b.ids[addr] = id
		b.last = append(b.last, lastAccess{store: -1, mem: -1})
	}
	return id
}

var prepPool = sync.Pool{New: func() any {
	return &prepScratch{ids: make(map[uint64]int32)}
}}

// Preprocess runs the program in the functional simulator and builds the
// task-structured work item the timing simulator consumes.
func Preprocess(p *program.Program, cfg trace.Config) (*WorkItem, error) {
	b := prepPool.Get().(*prepScratch)
	defer prepPool.Put(b)
	b.Reset()
	if b.insts == nil {
		// First use: size from the instruction bound when there is one (up to
		// 48 MiB); the buffer doubles from there as the stream demands.
		b.insts = make([]inst, 0, int(min(max(cfg.MaxInstructions, 1<<12), 1<<20)))
	}

	w := &WorkItem{Name: p.Name}
	var lastWriter [isa.NumRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	tooLong := false
	_, err := trace.Run(p, cfg, func(d trace.DynInst) bool {
		self := len(b.insts)
		if self >= instLimit {
			tooLong = true
			return false
		}
		if self == cap(b.insts) {
			b.insts = slices.Grow(b.insts, self) // explicit doubling
		}
		if d.TaskStart || len(b.tasks) == 0 {
			b.tasks = append(b.tasks, task{pc: d.TaskPC, start: int32(self)})
		}
		ti := int32(len(b.tasks) - 1)
		t := &b.tasks[ti]
		t.end = int32(self + 1)

		ins := p.Code[d.Index]
		r := inst{
			op:      d.Op,
			class:   isa.ClassOf(d.Op),
			pc:      d.PC,
			addr:    d.Addr,
			src:     [2]int32{-1, -1},
			memProd: -1,
			memTask: -1,
			prevMem: -1,
		}
		uses, n := ins.Uses()
		r.nSrc = uint8(n)
		for i := 0; i < n; i++ {
			if uses[i] != isa.Zero {
				r.src[i] = lastWriter[uses[i]]
			}
		}
		switch {
		case d.IsLoad():
			r.flags = flagLoad
			r.addrID = b.id(d.Addr)
			last := &b.last[r.addrID]
			if last.store >= 0 {
				r.memProd, r.memTask = last.store, last.task
			}
			r.prevMem, last.mem = last.mem, int32(self)
			r.loadOrd = t.loads
			t.loads++
			w.Loads++
		case d.IsStore():
			r.flags = flagStore
			r.addrID = b.id(d.Addr)
			last := &b.last[r.addrID]
			r.prevMem = last.mem
			*last = lastAccess{store: int32(self), task: ti, mem: int32(self)}
			t.stores++
			w.Stores++
		}
		if dst, ok := ins.Writes(); ok && dst != isa.Zero {
			lastWriter[dst] = int32(self)
		}
		b.insts = append(b.insts, r)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("multiscalar: preprocessing %q failed: %w", p.Name, err)
	}
	if tooLong {
		return nil, fmt.Errorf("%w: %q commits more than %d instructions; bound it with MaxInstructions",
			ErrTooManyInstructions, p.Name, instLimit)
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("multiscalar: program %q produced no instructions", p.Name)
	}
	w.Instructions = uint64(len(b.insts))
	w.addrs = len(b.ids)
	w.insts = slices.Clone(b.insts)
	w.tasks = slices.Clone(b.tasks)
	return w, nil
}
