package workload

import (
	"fmt"
	"sync/atomic"

	"memdep/internal/isa"
	"memdep/internal/program"
)

// Register conventions shared by all workload programs.
//
// The builder-written benchmarks use a fixed register plan so that the
// emitters below can be combined without clobbering each other:
//
//	r28        globals block base pointer (set up once, never clobbered)
//	r27, r26   data structure base pointers (tables, arrays, heaps)
//	r25/r24    outer loop limit / counter
//	r23/r22    middle loop limit / counter
//	r21/r20    inner loop limit / counter
//	r2..r19    temporaries and per-iteration locals
const (
	regGlobals = isa.Reg(28)
	regBaseA   = isa.Reg(27)
	regBaseB   = isa.Reg(26)
	regLimit0  = isa.Reg(25)
	regCount0  = isa.Reg(24)
	regLimit1  = isa.Reg(23)
	regCount1  = isa.Reg(22)
	regLimit2  = isa.Reg(21)
	regCount2  = isa.Reg(20)
)

// globalsBlock manages a block of named global scalar variables that live in
// one contiguous data allocation.  Workloads use memory-resident globals
// (rather than registers) because cross-iteration updates to such scalars are
// exactly the store→load dependences the paper studies.
type globalsBlock struct {
	offsets map[string]int64
	symbol  string
	base    uint64
}

// newGlobals allocates one word per name in a single block and returns the
// block.  The block's base address is available through the data symbol
// "globals".
func newGlobals(b *program.Builder, names ...string) *globalsBlock {
	g := &globalsBlock{offsets: make(map[string]int64, len(names)), symbol: "globals"}
	base := b.AllocWords(g.symbol, len(names))
	g.base = base
	for i, n := range names {
		g.offsets[n] = int64(i) * isa.WordSize
	}
	return g
}

// initVal sets the build-time initial value of a global (no code emitted).
func (g *globalsBlock) initVal(b *program.Builder, name string, v int64) {
	b.InitWord(g.base+uint64(g.off(name)), v)
}

// loadBase emits code to load the globals block base into regGlobals.
func (g *globalsBlock) loadBase(b *program.Builder) {
	b.LoadAddr(regGlobals, g.symbol)
}

// off returns the byte offset of a named global within the block.
func (g *globalsBlock) off(name string) int64 {
	o, ok := g.offsets[name]
	if !ok {
		panic("workload: undefined global " + name)
	}
	return o
}

// load emits: dst = global(name).
func (g *globalsBlock) load(b *program.Builder, dst isa.Reg, name string) {
	b.Load(dst, regGlobals, g.off(name))
}

// store emits: global(name) = src.
func (g *globalsBlock) store(b *program.Builder, src isa.Reg, name string) {
	b.Store(src, regGlobals, g.off(name))
}

// inc emits: global(name) += delta, using tmp as scratch.  The load and the
// store of the same global one iteration apart form a classic loop-carried
// memory recurrence.
func (g *globalsBlock) inc(b *program.Builder, name string, delta int64, tmp isa.Reg) {
	g.load(b, tmp, name)
	b.AddI(tmp, tmp, delta)
	g.store(b, tmp, name)
}

// add emits: global(name) += val, using tmp as scratch.
func (g *globalsBlock) add(b *program.Builder, name string, val, tmp isa.Reg) {
	g.load(b, tmp, name)
	b.Add(tmp, tmp, val)
	g.store(b, tmp, name)
}

// xor emits: global(name) ^= val, using tmp as scratch.
func (g *globalsBlock) xor(b *program.Builder, name string, val, tmp isa.Reg) {
	g.load(b, tmp, name)
	b.Xor(tmp, tmp, val)
	g.store(b, tmp, name)
}

// emitRandMem advances a memory-resident linear congruential generator and
// leaves the new state in dst.  The state word lives in the globals block
// under the given name; the load/store pair is itself a hot dependence.
// Clobbers tmp.
func emitRandMem(b *program.Builder, g *globalsBlock, name string, dst, tmp isa.Reg) {
	g.load(b, dst, name)
	b.LoadImm(tmp, 25173)
	b.Mul(dst, dst, tmp)
	b.AddI(dst, dst, 13849)
	b.AndI(dst, dst, 0x3fff_ffff)
	g.store(b, dst, name)
}

// buildRand advances an LCG, state = state*9301 + 49297 (mod 2^30), used to
// pre-compute deterministic "input data" into the static data segment
// instead of running an initialisation loop at simulation time.  (Pre-initialising the data
// keeps the measured region of every workload in its steady state, the same
// reason the paper fast-forwards past program start-up.)
func buildRand(state int64) int64 {
	return (state*9301 + 49297) & 0x3fff_ffff
}

// emitIndexWord computes dst = base + (idx & mask) * WordSize, the address of
// element (idx mod (mask+1)) of a word array.  mask must be a power of two
// minus one.  Clobbers dst only.
func emitIndexWord(b *program.Builder, dst, base, idx isa.Reg, mask int64) {
	b.AndI(dst, idx, mask)
	b.SllI(dst, dst, 3)
	b.Add(dst, dst, base)
}

// ifThenElse emits a two-way branch: when "s1 branchOp s2" holds, the then
// block runs, otherwise the else block (which may be nil).  Labels are
// derived from the current code position and therefore unique per call site.
func ifThenElse(b *program.Builder, branchOp isa.Op, s1, s2 isa.Reg, then func(), els func()) {
	thenLbl := uniqueLabel(b, "then")
	endLbl := uniqueLabel(b, "endif")
	b.Branch(branchOp, s1, s2, thenLbl)
	if els != nil {
		els()
	}
	b.Jump(endLbl)
	b.Label(thenLbl)
	then()
	b.Label(endLbl)
}

// labelSeq disambiguates labels generated at the same code position (which
// happens when one helper generates several labels before emitting code).
// Builders may be constructed from parallel tests, so the counter is atomic.
var labelSeq atomic.Uint64

func uniqueLabel(b *program.Builder, kind string) string {
	return fmt.Sprintf(".%s_%d_%d", kind, b.Here(), labelSeq.Add(1))
}

// stencilParams describes a one-dimensional relaxation kernel with a
// loop-carried memory recurrence: a[i] = (a[i-1] + a[i] + a[i+1]) / scale.
// Reading a[i-1] immediately after the previous iteration wrote it is the
// dependence the FP benchmarks of the paper expose as loop recurrences.
type stencilParams struct {
	name      string
	words     int  // array length in words
	sweeps    int  // number of relaxation sweeps (scaled)
	carried   bool // if false, write to a second array (no recurrence)
	extraWork int  // extra FP operations per element (lengthens the body)
}

// buildStencil constructs a relaxation workload.  When carried is true the
// kernel updates the array in place, so iteration i's load of a[i-1] depends
// on iteration i-1's store; when false it writes a separate output array and
// only scalar reduction globals carry dependences.
func buildStencil(p stencilParams, scale int) *program.Program {
	if scale < 1 {
		scale = 1
	}
	b := program.NewBuilder(p.name)
	g := newGlobals(b, "sum", "iters", "residual")
	grid := b.AllocWords("grid", p.words+2)
	b.AllocWords("out", p.words+2)

	g.loadBase(b)
	b.LoadAddr(regBaseA, "grid")
	b.LoadAddr(regBaseB, "out")

	// The grid is initialised at build time: grid[i] = (i*37) & 1023.
	for i := 0; i < p.words+2; i++ {
		b.InitWord(grid+uint64(i)*isa.WordSize, int64(i*37)&1023)
	}

	sweeps := p.sweeps * scale
	b.LoadImm(regLimit0, int64(sweeps))
	b.Loop(regCount0, regLimit0, true, func() {
		b.LoadImm(regLimit1, int64(p.words))
		b.Loop(regCount1, regLimit1, true, func() {
			// addr = grid + (i+1)*8
			b.AddI(2, regCount1, 1)
			b.SllI(2, 2, 3)
			b.Add(2, 2, regBaseA)
			b.Load(3, 2, -int64(isa.WordSize)) // a[i-1] (written last iteration when carried)
			b.Load(4, 2, 0)                    // a[i]
			b.Load(5, 2, int64(isa.WordSize))  // a[i+1]
			b.FAdd(6, 3, 4)
			b.FAdd(6, 6, 5)
			for k := 0; k < p.extraWork; k++ {
				b.FMul(6, 6, 4)
				b.AndI(6, 6, 0xffff)
				b.FAdd(6, 6, 3)
			}
			b.SrlI(6, 6, 1)
			b.AndI(6, 6, 0xfffff) // keep values bounded across sweeps
			if p.carried {
				b.Store(6, 2, 0)
			} else {
				b.AddI(7, regCount1, 1)
				b.SllI(7, 7, 3)
				b.Add(7, 7, regBaseB)
				b.Store(6, 7, 0)
			}
			// Scalar reduction through memory (hot recurrence).
			g.add(b, "sum", 6, 8)
		})
		g.inc(b, "iters", 1, 9)
		// residual = sum of the first element, another recurrence.
		b.Load(10, regBaseA, int64(isa.WordSize))
		g.add(b, "residual", 10, 11)
	})

	b.Load(isa.RV, regGlobals, g.off("sum"))
	b.Halt()
	return b.MustBuild()
}

// chaseParams describes a linked-structure workload: build a pool of nodes,
// link them into lists, then repeatedly traverse, mutate and "allocate" nodes
// from a free list.  The free-list head and allocation counters are hot
// scalar recurrences; the pointer chase produces dependences with moderate
// temporal locality.
type chaseParams struct {
	name       string
	nodes      int // number of nodes in the pool (power of two)
	traversals int // traversals per scale unit
	walkLen    int // nodes visited per traversal
	mutate     bool
}

// Node layout (words): 0 = next pointer, 1 = value, 2 = mark.
const nodeWords = 3

func buildChase(p chaseParams, scale int) *program.Program {
	if scale < 1 {
		scale = 1
	}
	b := program.NewBuilder(p.name)
	g := newGlobals(b, "freehead", "allocs", "marksum", "rng", "head")
	pool := b.AllocWords("pool", p.nodes*nodeWords)

	g.loadBase(b)
	b.LoadAddr(regBaseA, "pool")

	// The node pool is linked at build time: every node points to its
	// successor (a ring, so traversals never fall off), values hold the node
	// index and marks start at zero.  The list heads start at the pool base.
	for i := 0; i < p.nodes; i++ {
		node := pool + uint64(i*nodeWords)*isa.WordSize
		next := pool + uint64(((i+1)%p.nodes)*nodeWords)*isa.WordSize
		b.InitWord(node, int64(next))
		b.InitWord(node+isa.WordSize, int64(i))
	}
	g.initVal(b, "head", int64(pool))
	g.initVal(b, "freehead", int64(pool))
	g.initVal(b, "rng", 1)

	traversals := p.traversals * scale
	b.LoadImm(regLimit0, int64(traversals))
	b.Loop(regCount0, regLimit0, true, func() {
		// "Allocate" a node: pop the free list head (hot recurrence on
		// freehead), bump the allocation counter, and write the node's value.
		g.load(b, 10, "freehead")
		b.Load(11, 10, 0) // next
		g.store(b, 11, "freehead")
		g.inc(b, "allocs", 1, 12)
		emitRandMem(b, g, "rng", 13, 14)
		b.Store(13, 10, isa.WordSize)

		// Walk the list from head, touching walkLen nodes: read values into a
		// register accumulator and set the mark bits.  The accumulator is
		// folded into the marksum global once per traversal (once per task),
		// which is the loop-carried memory recurrence.
		g.load(b, 15, "head")
		b.AddI(9, isa.Zero, 0)
		b.LoadImm(regLimit1, int64(p.walkLen))
		b.Loop(regCount1, regLimit1, false, func() {
			b.Load(16, 15, isa.WordSize) // value
			b.Add(9, 9, 16)
			if p.mutate {
				b.Load(18, 15, 2*isa.WordSize)
				b.AddI(18, 18, 1)
				b.Store(18, 15, 2*isa.WordSize)
			}
			b.Load(15, 15, 0) // follow next
		})
		g.add(b, "marksum", 9, 17)
		// Rotate the head pointer so successive traversals start elsewhere.
		g.store(b, 15, "head")
	})

	b.Load(isa.RV, regGlobals, g.off("marksum"))
	b.Halt()
	return b.MustBuild()
}
