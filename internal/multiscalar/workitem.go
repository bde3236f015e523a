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

// noDst is the decoded destination of an instruction that writes no
// register (or writes R0): prepScratch.lastWriter's extra slot, which no
// source reads.
const noDst = isa.NumRegs

// decoded is one static instruction as Preprocess reads it: its register
// sources (an unused slot reads R0, whose last writer stays -1), its
// destination, class and load/store flag.  Preprocess decodes each static
// instruction once per run instead of once per dynamic instance.
type decoded struct {
	src   [2]isa.Reg
	dst   isa.Reg
	nSrc  uint8
	class isa.Class
	flags uint8
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
	// code is the program's decode, indexed by static instruction.
	code []decoded
	// lastWriter is the most recent writer of each register (-1 before the
	// first), plus the noDst slot.
	lastWriter [isa.NumRegs + 1]int32
	// loads and stores count the stream's memory operations.
	loads, stores uint64
	// tooLong reports a stream cut at instLimit.
	tooLong bool
}

// Reset empties the scratch, keeping its capacity.
func (b *prepScratch) Reset() {
	b.insts = b.insts[:0]
	b.tasks = b.tasks[:0]
	clear(b.ids)
	b.last = b.last[:0]
	b.code = b.code[:0]
	for i := range b.lastWriter {
		b.lastWriter[i] = -1
	}
	b.loads, b.stores = 0, 0
	b.tooLong = false
}

// decode fills b.code from the program's instructions.
func (b *prepScratch) decode(code []isa.Instruction) {
	b.code = slices.Grow(b.code[:0], len(code))[:len(code)]
	for i := range code {
		ins, s := &code[i], &b.code[i]
		uses, n := ins.Uses()
		s.src, s.nSrc = uses, uint8(n)
		s.dst = noDst
		if dst, ok := ins.Writes(); ok && dst != isa.Zero {
			s.dst = dst
		}
		s.class = isa.ClassOf(ins.Op)
		s.flags = 0
		switch {
		case isa.IsLoad(ins.Op):
			s.flags = flagLoad
		case isa.IsStore(ins.Op):
			s.flags = flagStore
		}
	}
}

// id returns the address's id, numbering the address on its first
// appearance.
//
//memdep:hotpath
func (b *prepScratch) id(addr uint64) int32 {
	id, ok := b.ids[addr]
	if !ok {
		id = int32(len(b.ids))
		b.ids[addr] = id
		b.last = append(b.last, lastAccess{store: -1, mem: -1}) //lint:alloc-ok pooled buffer, growth amortized across builds
	}
	return id
}

// add appends the committed instruction d to the stream, resolving its
// producers; it returns false, setting tooLong, once the stream reaches
// instLimit.  Each field of the new record is written in place.
//
//memdep:hotpath
func (b *prepScratch) add(d *trace.DynInst) bool {
	self := len(b.insts)
	if self >= instLimit {
		b.tooLong = true
		return false
	}
	if self == cap(b.insts) {
		b.insts = slices.Grow(b.insts, self) //lint:alloc-ok explicit doubling of the pooled buffer, amortized across builds
	}
	if d.TaskStart || len(b.tasks) == 0 {
		b.tasks = append(b.tasks, task{pc: d.TaskPC, start: int32(self)}) //lint:alloc-ok pooled buffer, growth amortized across builds
	}
	ti := int32(len(b.tasks) - 1)
	t := &b.tasks[ti]
	t.end = int32(self + 1)

	s := &b.code[d.Index]
	b.insts = b.insts[:self+1]
	r := &b.insts[self]
	r.pc = d.PC
	r.addr = d.Addr
	r.src[0] = b.lastWriter[s.src[0]]
	r.src[1] = b.lastWriter[s.src[1]]
	r.memProd, r.memTask = -1, -1
	r.loadOrd, r.addrID, r.prevMem = 0, 0, -1
	r.op, r.class, r.flags, r.nSrc = d.Op, s.class, s.flags, s.nSrc
	switch s.flags {
	case flagLoad:
		r.addrID = b.id(d.Addr)
		last := &b.last[r.addrID]
		if last.store >= 0 {
			r.memProd, r.memTask = last.store, last.task
		}
		r.prevMem, last.mem = last.mem, int32(self)
		r.loadOrd = t.loads
		t.loads++
		b.loads++
	case flagStore:
		r.addrID = b.id(d.Addr)
		last := &b.last[r.addrID]
		r.prevMem = last.mem
		last.store, last.task, last.mem = int32(self), ti, int32(self)
		t.stores++
		b.stores++
	}
	b.lastWriter[s.dst] = int32(self)
	return true
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
	b.decode(p.Code)

	_, err := trace.Run(p, cfg, b.add)
	if err != nil {
		return nil, fmt.Errorf("multiscalar: preprocessing %q failed: %w", p.Name, err)
	}
	if b.tooLong {
		return nil, fmt.Errorf("%w: %q commits more than %d instructions; bound it with MaxInstructions",
			ErrTooManyInstructions, p.Name, instLimit)
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("multiscalar: program %q produced no instructions", p.Name)
	}
	return &WorkItem{
		Name:         p.Name,
		Instructions: uint64(len(b.insts)),
		Loads:        b.loads,
		Stores:       b.stores,
		insts:        slices.Clone(b.insts),
		tasks:        slices.Clone(b.tasks),
		addrs:        len(b.ids),
	}, nil
}
