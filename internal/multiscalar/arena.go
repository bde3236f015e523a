package multiscalar

import (
	"context"
	"slices"
	"sync"

	"memdep/internal/arb"
	"memdep/internal/cache"
	"memdep/internal/ctrlflow"
	"memdep/internal/isa"
	"memdep/internal/memdep"
)

// Simulator is a reusable timing-simulation arena.  It owns all per-run
// backing storage -- the per-task execution state and its flat SoA arrays,
// the subsystem models (cache hierarchy, ARB, sequencer, dependence
// predictor, DDCs), the functional-unit pools and the predicted-pair
// buffer -- and re-slices rather than re-allocates it on every
// Simulate call, so a warmed-up simulator runs with essentially zero heap
// allocations per simulation (the per-run Result maps are the deliberate
// exception; see sim.result).
//
// A Simulator is NOT safe for concurrent use; use one per goroutine (the
// engine keeps one per worker) or go through SimulateContext, which draws
// from a shared pool.
//
//memdep:resettable
type Simulator struct {
	s sim

	// stages is the stage count the cache hierarchy and the ARB were built
	// for; they are rebuilt only when it changes.  mdsCfg and ddcSizes are
	// the configurations the predictor system and the DDCs were built with.
	// A subsystem whose configuration matches is Reset in place.  They must
	// survive reset: the diff against them is what decides reuse.
	stages   int           //lint:reset-exempt config-diff baseline, compared before state is cleared
	mdsCfg   memdep.Config //lint:reset-exempt config-diff baseline, compared before state is cleared
	ddcSizes []int         //lint:reset-exempt config-diff baseline, compared before state is cleared

	// mdsCache parks the dependence-predictor system while runs alternate
	// to a policy that does not use one, so flipping policies on a reused
	// arena does not discard (and later rebuild) the tables.
	mdsCache *memdep.System //lint:reset-exempt deliberately parked across runs, see doc comment
}

// NewSimulator returns an empty arena.  The first Simulate call sizes it.
func NewSimulator() *Simulator { return &Simulator{} }

// Simulate runs the work item on the configured processor, reusing the
// arena's storage from previous runs.  Results are self-contained copies and
// remain valid after subsequent runs.
func (sm *Simulator) Simulate(ctx context.Context, w *WorkItem, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	sm.reset(ctx, w, cfg)
	s := &sm.s
	err := s.run()
	s.ctx = nil
	if err != nil {
		return Result{}, err
	}
	return s.result(), nil
}

// reset prepares the arena for one run: subsystems whose configuration is
// unchanged are cleared in place, per-task state is re-carved from the flat
// backing arrays (grown only when the work item outsizes every previous
// one), and all scalar state is zeroed.
func (sm *Simulator) reset(ctx context.Context, w *WorkItem, cfg Config) {
	s := &sm.s
	s.ctx, s.cfg, s.w = ctx, cfg, w

	if s.hier == nil || sm.stages != cfg.Stages {
		s.hier = cache.NewHierarchy(cfg.Stages)
		s.arb = arb.New(arb.DefaultConfig(cfg.Stages))
		sm.stages = cfg.Stages
	} else {
		s.hier.Reset()
	}
	// The ARB indexes by the work item's address ids and task ids.
	s.arb.Reset(w.addrs, len(w.tasks))
	if s.seq == nil {
		s.seq = ctrlflow.NewSequencer(ctrlflow.DefaultSequencerConfig())
	} else {
		s.seq.Reset()
	}

	if cfg.Policy.UsesPredictor() {
		if s.mds == nil {
			s.mds, sm.mdsCache = sm.mdsCache, nil
		}
		if s.mds == nil || sm.mdsCfg != cfg.MemDep {
			s.mds = memdep.NewSystem(cfg.MemDep)
			sm.mdsCfg = cfg.MemDep
			// The hook captures &sm.s, which is stable for the life of the
			// arena, so it is installed once per build rather than per run.
			s.mds.SetReleaseHook(s.wakeLoad)
		} else {
			s.mds.Reset()
		}
	} else if s.mds != nil {
		sm.mdsCache, s.mds = s.mds, nil
	}

	if !slices.Equal(sm.ddcSizes, cfg.DDCSizes) {
		s.ddcs = s.ddcs[:0]
		for _, size := range cfg.DDCSizes {
			s.ddcs = append(s.ddcs, memdep.NewDDC(size))
		}
		sm.ddcSizes = append(sm.ddcSizes[:0], cfg.DDCSizes...)
	} else {
		for _, ddc := range s.ddcs {
			ddc.Reset()
		}
	}

	// Per-task execution state, carved out of flat backing arrays sized by
	// the largest work item seen so far.
	n := len(w.tasks)
	if cap(s.tasks) < n {
		s.tasks = make([]execTask, n)
	}
	s.tasks = s.tasks[:n]
	if cap(s.wake) < n {
		s.wake = make([]int64, n)
	}
	s.wake = s.wake[:n]
	if cap(s.committed) < n {
		s.committed = make([]bool, n)
	}
	s.committed = s.committed[:n]
	for i := range s.wake {
		s.wake[i] = 0
		s.committed[i] = false
	}
	ni := len(w.insts)
	if cap(s.done) < ni {
		s.done = make([]int64, ni)
		s.taskOf = make([]int32, ni)
	}
	s.done, s.taskOf = s.done[:ni], s.taskOf[:ni]
	if cap(s.loadAll) < int(w.Loads) {
		s.loadAll = make([]loadRecord, w.Loads)
	}
	loads := s.loadAll[:w.Loads]
	for i := range s.tasks {
		t := &s.tasks[i]
		*t = execTask{rec: &w.tasks[i], id: i}
		l := int(t.rec.loads)
		t.loadInfo = loads[:l:l]
		loads = loads[l:]
		taskOf := s.taskOf[t.rec.start:t.rec.end]
		for j := range taskOf {
			taskOf[j] = int32(i)
		}
	}

	// Functional-unit reservation tables: one per class per unit, all carved
	// from one flat array.  resetExecState zeroes a unit's tables when a
	// task is (re-)dispatched to it, so stale cycles never leak.
	var fuN [isa.NumClasses]int
	fuTotal := 0
	for c := range fuN {
		k := max(fus[c], 1)
		fuN[c] = k
		fuTotal += k
	}
	fuTotal *= cfg.Stages
	if cap(s.fuAll) < fuTotal {
		s.fuAll = make([]int64, fuTotal)
	}
	fu := s.fuAll[:fuTotal]
	if cap(s.fuPool) < cfg.Stages {
		s.fuPool = make([]([isa.NumClasses][]int64), cfg.Stages)
	}
	s.fuPool = s.fuPool[:cfg.Stages]
	for u := range s.fuPool {
		for c := range fuN {
			k := fuN[c]
			s.fuPool[u][c] = fu[:k:k]
			fu = fu[k:]
		}
	}

	s.cycle, s.head, s.nextDispatch = 0, 0, 0
	s.changed, s.nextEvent = false, never
	s.pairBuf = s.pairBuf[:0]
	s.arbBypasses = 0
	s.res = Result{}
}

// simulatorPool backs SimulateContext: one-shot callers still amortise arena
// construction across calls without managing Simulator lifetimes themselves.
var simulatorPool = sync.Pool{New: func() any { return NewSimulator() }}

// SimulateContext is Simulate with cooperative cancellation: the run loop
// checks the context every few thousand scheduling passes and aborts with
// ctx.Err(), so a cancelled service request stops burning CPU promptly
// without a per-cycle branch on the hot path.  It draws a pooled Simulator
// arena, so repeated calls reuse backing storage; callers with a natural
// per-worker home for an arena should hold a Simulator directly instead.
func SimulateContext(ctx context.Context, w *WorkItem, cfg Config) (Result, error) {
	sm := simulatorPool.Get().(*Simulator)
	res, err := sm.Simulate(ctx, w, cfg)
	simulatorPool.Put(sm)
	return res, err
}
