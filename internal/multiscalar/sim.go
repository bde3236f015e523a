package multiscalar

import (
	"context"
	"fmt"
	"math"

	"memdep/internal/arb"
	"memdep/internal/cache"
	"memdep/internal/ctrlflow"
	"memdep/internal/isa"
	"memdep/internal/memdep"
	"memdep/internal/policy"
)

type waitKind int

const (
	waitAllPrior waitKind = iota // wait until all earlier in-flight stores executed
	waitProducer                 // wait for a specific producer store (PSYNC)
	waitSignal                   // wait for an MDST signal (SYNC/ESYNC)
)

// waitState records why a task's next instruction is stalled.  It is
// embedded in every execTask, so its layout is part of the per-task working
// set; the flag bytes trail the word-aligned fields to avoid padding.
//
//memdep:soa
type waitState struct {
	kind     waitKind
	since    int64
	ldid     int64
	producer int32 // global instruction index of the awaited store (PSYNC)
	active   bool
	signaled bool
}

// loadRecord captures, for one load, what was predicted and what was actually
// the case -- the raw material of Table 8 and of the non-speculative
// predictor updates.  Records live in a flat per-task slice indexed by the
// load's ordinal (inst.loadOrd), so commit- and squash-time walks visit
// them in ascending instruction order -- deterministically, unlike the map
// they replace.  The predicted wait pairs are stored as an (offset, length)
// window into the simulator's shared pairBuf arena rather than a per-record
// slice, which removes the last per-dispatch allocation from the hot path.
// A load's MDST identifier (LDID) is its global instruction index.
//
//memdep:soa
type loadRecord struct {
	seen       bool // the load has reached issue at least once this attempt
	predicted  bool
	actualDep  bool
	queried    bool
	producerPC uint64
	pairsOff   int32
	pairsLen   int32
}

// execTask is the execution state of one task on its processing unit.  The
// two fields the scheduling pass reads for every in-flight task every pass --
// the wake cycle and the committed flag -- live in dense structure-of-arrays
// slices on the sim (sim.wake, sim.committed) instead, so the skip checks
// walk two small arrays rather than striding across task structs, and the
// completion cycle of every instruction lives in the flat sim.done array.
//
//memdep:soa
type execTask struct {
	rec  *task
	id   int
	unit int

	// next is the global index of the next instruction to issue, in
	// [rec.start, rec.end].
	next       int
	storesLeft int
	startAt    int64
	finishedAt int64

	// fuNext points at the per-unit functional-unit reservation pool; at
	// most one task executes on a unit at a time, so tasks sharing a unit
	// reuse the same backing arrays (zeroed by resetExecState).
	fuNext         *[isa.NumClasses][]int64
	lastFetchBlock uint64
	fetchReady     int64

	wait     waitState
	loadInfo []loadRecord
}

// never is the "no pending event" sentinel of the event-driven core, and the
// wake cycle of a parked task.
const never = int64(math.MaxInt64)

// sim is the per-run execution state.  Every slice, map and subsystem it
// holds is backing storage owned by the enclosing Simulator arena: reset()
// re-slices and clears in place rather than re-allocating, so a reused
// simulator's steady-state hot path performs no heap allocations.  The one
// exception is the result maps (Result.MisspecPairs / DDCMissRate), which
// escape into the engine's memoization cache and therefore must be freshly
// allocated per run (see result()).
type sim struct {
	ctx   context.Context
	cfg   Config
	w     *WorkItem
	tasks []execTask

	// Structure-of-arrays per-task state, indexed by task id.
	//
	// wake caches the cycle at which a task's current stall resolves when
	// that stall is purely timed (fetch latency, operand forwarding, FU
	// occupancy, restart delay); the event-driven core skips the task's
	// advance before then.  Zero means "advance on the next visit".  never
	// means the task is parked: its stall ends only through an action --
	// a producer's issue, an older task's last store, an MDST signal, a
	// squash -- and that action clears the wake when it happens
	// (wakeWaiters, wakeStoreWaiters, wakeLoad, resetExecState).  Timed wake
	// values never move earlier: the inputs they are computed from
	// (producer completion times, FU reservations, fetch latency) are only
	// reset by a squash, and a squash squashes every younger task --
	// including any task whose wake depended on the squashed state --
	// clearing their wake via resetExecState.
	//
	// waitOn names the instruction a parked task waits to see issue (a
	// cross-task register producer, or PSYNC's store), -1 for none; with
	// the task's waitState it is the task's blocked-on record.
	wake      []int64
	waitOn    []int32
	committed []bool

	hier *cache.Hierarchy
	arb  *arb.ARB
	seq  *ctrlflow.Sequencer
	mds  *memdep.System
	ddcs []*memdep.DDC

	// predicting reports whether the run's policy consults mds.  The arena
	// keeps mds across runs, so a policy that does not predict finds it
	// built but must not touch it.
	predicting bool

	cycle        int64
	head         int
	nextDispatch int

	// Event-driven bookkeeping for one scheduling pass: changed records
	// whether any architectural state was mutated (in which case the next
	// cycle must be simulated), and nextEvent accumulates the earliest cycle
	// at which a stalled condition -- a task's wake cycle or the head task's
	// completion -- resolves by time alone.
	changed   bool
	nextEvent int64

	// fuPool holds one functional-unit reservation table per processing
	// unit, shared by the successive tasks dispatched to that unit.  All
	// tables are carved from the flat fuAll arena array.
	fuPool []([isa.NumClasses][]int64)

	// pairBuf is the flat arena behind every loadRecord's predicted-pair
	// window.  It only grows within a run (windows of squashed attempts
	// leak until reset -- bounded by the number of load queries, and far
	// cheaper than per-record slices); reset truncates it to zero.
	//
	//memdep:arena
	pairBuf []memdep.PairKey

	// done holds every instruction's completion cycle (-1 until it issues),
	// indexed by global instruction index, so a producer is one load away
	// whichever task it belongs to.  taskOf maps an instruction to its task,
	// for the ring latency of cross-task register operands.
	done   []int64 //memdep:arena
	taskOf []int32 //memdep:arena

	// hasWaiter flags an instruction some parked task names in waitOn, so
	// its issue costs one byte load unless a task waits on it.
	hasWaiter []bool //memdep:arena

	// Flat backing arrays for the per-task loadInfo slices and the FU pools,
	// retained across runs.
	loadAll []loadRecord //memdep:arena
	fuAll   []int64      //memdep:arena

	res Result
}

// post offers a cycle at which a currently stalled condition resolves by the
// passage of time alone; run() jumps to the earliest such cycle when a
// scheduling pass makes no progress.
//
//memdep:hotpath
func (s *sim) post(cycle int64) {
	if cycle > s.cycle && cycle < s.nextEvent {
		s.nextEvent = cycle
	}
}

// setWake caches a task's timed wake cycle and posts it as a jump target.
//
//memdep:hotpath
func (s *sim) setWake(t *execTask, cycle int64) {
	s.wake[t.id] = cycle
	s.post(cycle)
}

// run drives the simulation to completion.
//
// Every scheduling pass advances each in-flight task in ascending order,
// then tries to commit the head.  If the pass mutated any state, the next
// cycle must be simulated (the mutation may enable more work immediately).
// If it was a pure poll -- every task stalled -- nothing can happen until
// the earliest pending event, so the clock jumps there directly.  The pass
// itself collects that jump target: a stall that resolves by time (fetch
// latency, operand forwarding, FU occupancy, squash restart, task
// completion) posts its resolution cycle, and a task skipped because its
// cached wake cycle is still pending posts that cycle again.  A stall that
// resolves only through an action (producer not yet issued, MDST waits,
// unresolved prior stores, a finished task awaiting commit) posts nothing
// and parks the task: the pass skips it until the enabling action, itself
// a mutation that schedules the following cycle, clears its wake.  The
// pass reads wake[i] when it reaches task i, so a task woken by an older
// task advances in the same pass and one woken by a younger task in the
// next, exactly when re-advancing it on every pass would have seen the
// change.
//
// The stepped reference loop (coreStepped, selectable only by this
// package's tests) advances the clock one cycle per pass instead;
// TestCoresCycleIdentical and FuzzCoresAgree assert the two are
// cycle-for-cycle identical.
func (s *sim) run() error {
	// Dispatch the initial window.
	for i := 0; i < s.cfg.Stages && i < len(s.tasks); i++ {
		s.dispatch(i, int64(i)*dispatchLatency)
	}
	stepped := s.cfg.Core == coreStepped
	var passes uint
	for s.head < len(s.tasks) {
		if s.cycle > s.cfg.maxCycles {
			return fmt.Errorf("multiscalar: %q exceeded the cycle limit of %d under %v",
				s.w.Name, s.cfg.maxCycles, s.cfg.Policy)
		}
		if passes++; passes&0x1fff == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		s.changed = false
		s.nextEvent = never
		for i := s.head; i < s.nextDispatch; i++ {
			if s.committed[i] {
				continue
			}
			if !stepped && s.cycle < s.wake[i] {
				// Timed stall still pending, or parked (post ignores never);
				// re-advancing would be a no-op.
				s.post(s.wake[i])
				continue
			}
			s.advance(&s.tasks[i])
		}
		s.tryCommit()
		switch {
		case stepped || s.changed:
			s.cycle++
		case s.nextEvent == never:
			// No timed event pending and no progress made: the window can
			// never advance again.  (The stepped loop would spin here until
			// the cycle limit; report the deadlock it is actually in.)
			return fmt.Errorf("multiscalar: %q wedged at cycle %d under %v: no task can progress and no event is pending",
				s.w.Name, s.cycle, s.cfg.Policy)
		default:
			s.cycle = s.nextEvent
		}
	}
	return nil
}

// dispatch assigns the task to its processing unit and charges the sequencer
// costs (next-task prediction, descriptor cache).
func (s *sim) dispatch(taskIdx int, when int64) {
	t := &s.tasks[taskIdx]
	t.unit = taskIdx % s.cfg.Stages
	t.fuNext = &s.fuPool[t.unit]
	prevPC := uint64(0)
	prevKnown := false
	if taskIdx > 0 {
		prevPC = s.w.tasks[taskIdx-1].pc
		prevKnown = true
	}
	out := s.seq.Dispatch(prevPC, prevKnown, t.rec.pc)
	start := when + dispatchLatency
	if !out.PredictedCorrectly {
		start += mispredictPenalty
	}
	if !out.DescriptorHit {
		start += descriptorMissPenalty
	}
	s.resetExecState(t, start)
	s.nextDispatch = taskIdx + 1
}

// resetExecState prepares (or re-prepares, after a squash) a task for
// execution starting at the given cycle.  It only clears values: the done,
// loadInfo and fuNext backing arrays are allocated once and reused across
// squash-restarts.
func (s *sim) resetExecState(t *execTask, start int64) {
	done := s.done[t.rec.start:t.rec.end]
	for i := range done {
		done[i] = -1
	}
	clear(s.hasWaiter[t.rec.start:t.rec.end])
	t.next = int(t.rec.start)
	t.storesLeft = int(t.rec.stores)
	t.startAt = start
	t.finishedAt = start
	t.wait = waitState{}
	for i := range t.loadInfo {
		t.loadInfo[i] = loadRecord{}
	}
	t.lastFetchBlock = ^uint64(0)
	t.fetchReady = 0
	s.wake[t.id] = 0
	s.waitOn[t.id] = -1
	for c := range t.fuNext {
		for i := range t.fuNext[c] {
			t.fuNext[c][i] = 0
		}
	}
}

// tryCommit retires the head task if it has finished (one commit per cycle).
//
//memdep:hotpath
func (s *sim) tryCommit() {
	if s.head >= len(s.tasks) {
		return
	}
	t := &s.tasks[s.head]
	if s.head >= s.nextDispatch || t.next < int(t.rec.end) {
		return
	}
	if t.finishedAt > s.cycle {
		s.post(t.finishedAt)
		return
	}
	s.commitTask(t)
	s.head++
	s.changed = true
	if s.nextDispatch < len(s.tasks) {
		s.dispatch(s.nextDispatch, s.cycle)
	}
}

//memdep:hotpath
func (s *sim) commitTask(t *execTask) {
	s.committed[t.id] = true
	s.res.Tasks++
	s.arb.CommitTask(uint64(t.id))
	// Walk the loads in ascending instruction order so MDPT updates are
	// applied in a deterministic order.
	insts := s.w.insts[t.rec.start:t.rec.end]
	for idx := range insts {
		r := &insts[idx]
		if !r.isLoad() {
			continue
		}
		info := &t.loadInfo[r.loadOrd]
		if !info.seen {
			continue
		}
		pred, act := 0, 0
		if info.predicted {
			pred = 1
		}
		if info.actualDep {
			act = 1
		}
		s.res.Breakdown[pred][act]++
		if s.predicting && info.queried {
			actualPC := uint64(0)
			if info.actualDep {
				actualPC = info.producerPC
			}
			s.mds.CommitLoad(r.pc, actualPC, s.loadPairs(info))
		}
	}
}

// loadPairs resolves a load record's predicted-pair window in the pairBuf
// arena.  The slice aliases arena storage: it is valid for immediate reads
// only and must never be retained.
//
//memdep:hotpath
func (s *sim) loadPairs(info *loadRecord) []memdep.PairKey {
	return s.pairBuf[info.pairsOff : info.pairsOff+info.pairsLen]
}

// ringLatency is the forwarding delay from the unit of task prodTask to the
// unit of task consTask over the unidirectional ring.  Task i runs on unit
// i mod Stages and a producer's task never follows its consumer's, so the
// hop count is the task distance mod Stages; the division is taken only
// for a producer a whole ring or more behind.
func (s *sim) ringLatency(prodTask, consTask int) int64 {
	hops := consTask - prodTask
	if hops >= s.cfg.Stages {
		hops %= s.cfg.Stages
	}
	return int64(hops) * ringHop
}

// operandReady computes the earliest cycle at which the instruction's
// register operands are available.  blocker is the global index of a
// producer that has not issued yet, or -1 when every producer has.
//
//memdep:hotpath
func (s *sim) operandReady(t *execTask, r *inst) (ready int64, blocker int32) {
	ready = t.startAt
	for i := 0; i < int(r.nSrc); i++ {
		p := r.src[i]
		if p < 0 {
			continue
		}
		avail := s.done[p]
		if avail < 0 {
			return 0, p
		}
		if p < t.rec.start {
			// Producers precede their consumers, so one before the task's
			// window belongs to an earlier task: forward it over the ring.
			avail += s.ringLatency(int(s.taskOf[p]), t.id)
		}
		if avail > ready {
			ready = avail
		}
	}
	return ready, -1
}

// parkOn parks the task until instruction p issues (see wakeWaiters).  p
// lies in an older task: issue is in order, so every producer in the
// task's own window has issued.
//
//memdep:hotpath
func (s *sim) parkOn(t *execTask, p int32) {
	s.wake[t.id] = never
	s.waitOn[t.id] = p
	s.hasWaiter[p] = true
}

// wakeWaiters wakes the younger in-flight tasks parked on instruction p,
// which task t has just issued.
//
//memdep:hotpath
func (s *sim) wakeWaiters(t *execTask, p int) {
	s.hasWaiter[p] = false
	for j := t.id + 1; j < s.nextDispatch; j++ {
		if s.waitOn[j] == int32(p) {
			s.waitOn[j] = -1
			s.wake[j] = 0
		}
	}
}

// wakeStoreWaiters wakes the younger in-flight tasks whose load waits for
// every prior store (NEVER, WAIT) or may be released stale (SYNC, ESYNC):
// task t has just issued its last store, which may complete that
// condition.  A task woken while its condition still fails costs one
// advance and parks again.
func (s *sim) wakeStoreWaiters(t *execTask) {
	for j := t.id + 1; j < s.nextDispatch; j++ {
		if w := &s.tasks[j].wait; w.active && w.kind != waitProducer {
			s.wake[j] = 0
		}
	}
}

// allPriorStoresResolved reports whether every store of every earlier
// in-flight task has executed.
func (s *sim) allPriorStoresResolved(t *execTask) bool {
	for i := s.head; i < t.id; i++ {
		if !s.committed[i] && s.tasks[i].storesLeft > 0 {
			return false
		}
	}
	return true
}

// actualDependence reports whether the load depends on a store of an earlier
// task that is still in flight, and the PC of that store.
func (s *sim) actualDependence(t *execTask, r *inst) (bool, uint64) {
	if r.memProd < 0 || int(r.memTask) == t.id {
		return false, 0
	}
	if s.committed[r.memTask] {
		return false, 0
	}
	return true, s.w.insts[r.memProd].pc
}

// taskPCAt lets the ESYNC predictor look up the task PC at a given instance
// (task) number.
func (s *sim) taskPCAt(instance uint64) (uint64, bool) {
	if instance >= uint64(len(s.w.tasks)) {
		return 0, false
	}
	return s.w.tasks[instance].pc, true
}

// beginWait transitions the load into the given wait state.
func (s *sim) beginWait(t *execTask, w waitState) {
	w.active = true
	w.since = s.cycle
	t.wait = w
	s.res.LoadsWaited++
	s.changed = true
}

// loadMayIssue applies the speculation policy to a load whose operands are
// ready.  It returns true when the load may access memory this cycle; when it
// returns false the load (and, because issue is in order, the rest of its
// task) stalls.  Wait states resolve only through the actions of tasks (the
// awaited store's issue, an older task's last store, an MDST signal), so a
// stalled load posts no timed event and parks its task once its release
// condition has been tested and failed; the enabling action itself clears
// the task's wake and so schedules the re-evaluation.
//
//memdep:hotpath
func (s *sim) loadMayIssue(t *execTask, r *inst, idx int) bool {
	info := &t.loadInfo[r.loadOrd]
	if !info.seen {
		info.seen = true
		info.actualDep, info.producerPC = s.actualDependence(t, r)
		s.changed = true
	}

	if !t.wait.active {
		switch s.cfg.Policy {
		case policy.Always:
			return true

		case policy.Never:
			if s.allPriorStoresResolved(t) {
				return true
			}
			s.beginWait(t, waitState{kind: waitAllPrior})
			s.wake[t.id] = never
			return false

		case policy.Wait:
			if !info.actualDep {
				return true
			}
			if s.allPriorStoresResolved(t) {
				return true
			}
			s.beginWait(t, waitState{kind: waitAllPrior})
			s.wake[t.id] = never
			return false

		case policy.PerfectSync:
			if !info.actualDep {
				return true
			}
			// Ideal synchronization: the load proceeds as soon as the
			// producing store has issued (the value is forwarded).
			if s.done[r.memProd] >= 0 {
				return true
			}
			s.beginWait(t, waitState{kind: waitProducer, producer: r.memProd})
			s.parkOn(t, r.memProd)
			return false

		case policy.Sync, policy.ESync:
			if info.queried {
				// The prediction was already made for this execution attempt
				// (the load was then stalled by a structural hazard, or has
				// been released from its wait); do not re-query the tables.
				return true
			}
			ldid := int64(idx)
			d := s.mds.LoadIssue(memdep.LoadQuery{
				PC:       r.pc,
				Instance: uint64(t.id),
				LDID:     ldid,
				Addr:     r.addr,
				TaskPCAt: s.taskPCAt,
			})
			info.predicted = d.Predicted
			info.queried = true
			// Copy the decision's pairs (which alias memdep.System scratch)
			// into a fresh window of the pairBuf arena.
			info.pairsOff = int32(len(s.pairBuf))
			info.pairsLen = int32(len(d.WaitPairs))
			s.pairBuf = append(s.pairBuf, d.WaitPairs...) //lint:alloc-ok pairBuf arena growth, amortized across runs
			s.changed = true
			if !d.Wait {
				return true
			}
			// Not parked: the stale-release condition (every prior store
			// issued) has not been tested, and the next pass must test it.
			s.beginWait(t, waitState{kind: waitSignal, ldid: ldid})
			return false

		default:
			return true
		}
	}

	// The load is already waiting: evaluate its release condition.
	switch t.wait.kind {
	case waitAllPrior:
		if s.allPriorStoresResolved(t) {
			s.release(t)
			return true
		}
	case waitProducer:
		if s.done[t.wait.producer] >= 0 {
			s.release(t)
			return true
		}
	case waitSignal:
		if t.wait.signaled {
			s.release(t)
			return true
		}
		if s.allPriorStoresResolved(t) {
			// Incomplete synchronization (section 4.4.2): the predicted store
			// never signalled; free the entry and weaken the prediction.
			s.mds.ReleaseLoad(t.wait.ldid)
			s.res.FalseDependenceReleases++
			s.release(t)
			return true
		}
	}
	// Tested and still waiting.  A PSYNC wait stays registered on its store
	// from the pass it began in.
	s.wake[t.id] = never
	return false
}

func (s *sim) release(t *execTask) {
	s.res.WaitCycles += uint64(s.cycle - t.wait.since)
	t.wait = waitState{}
	s.changed = true
}

// wakeLoad marks a waiting load as signalled and wakes its task.  It is
// registered as the memdep.System release hook, so a store's MDST signal
// pushes the release to the waiting task instead of the task polling the
// table.  The LDID is the load's global instruction index.  Under address
// tagging the signalling store may belong to a younger task.
func (s *sim) wakeLoad(ldid int64) {
	t := &s.tasks[s.taskOf[ldid]]
	if t.wait.active && t.wait.kind == waitSignal && t.wait.ldid == ldid {
		t.wait.signaled = true
		s.wake[t.id] = 0
		s.changed = true
	}
}

// acquireFU reserves a functional unit of the class at the given cycle,
// returning false when all instances are busy.
//
//memdep:hotpath
func (s *sim) acquireFU(t *execTask, class isa.Class, op isa.Op, cycle int64) bool {
	insts := t.fuNext[class]
	for i := range insts {
		if insts[i] <= cycle {
			insts[i] = cycle + fuOccupancy[op]
			return true
		}
	}
	return false
}

// fuFreeAt returns the earliest cycle at which a unit of the class frees up.
//
//memdep:hotpath
func (s *sim) fuFreeAt(t *execTask, class isa.Class) int64 {
	insts := t.fuNext[class]
	free := insts[0]
	for _, c := range insts[1:] {
		if c < free {
			free = c
		}
	}
	return free
}

// advance issues up to IssueWidth instructions of the task this cycle.  Every
// early return marks progress (s.changed), caches the cycle at which the
// blocking condition resolves via setWake, or parks the task (wake = never)
// on a condition only an action can end, so the event-driven core knows
// when the task next becomes actionable and skips it until then.
//
//memdep:hotpath
func (s *sim) advance(t *execTask) {
	s.wake[t.id] = 0
	if s.cycle < t.startAt {
		s.setWake(t, t.startAt)
		return
	}
	end := int(t.rec.end)
	if t.next >= end {
		// Finished, awaiting commit: only the commit, which needs no
		// advance, or a squash changes the task.
		s.wake[t.id] = never
		return
	}
	for issued := 0; issued < issueWidth && t.next < end; issued++ {
		idx := t.next
		r := &s.w.insts[idx]

		// A waiting load already passed the fetch and operand checks when
		// its wait began, and their inputs cannot regress without a squash
		// (which clears the wait); go straight to the release condition.
		if !t.wait.active {
			// Instruction supply: one cache access per 64-byte block.
			block := r.pc / cache.BlockSize
			if block != t.lastFetchBlock {
				t.fetchReady = s.hier.InstrFetch(t.unit, r.pc, s.cycle)
				t.lastFetchBlock = block
				s.changed = true
			}
			if s.cycle < t.fetchReady {
				s.setWake(t, t.fetchReady)
				return
			}

			ready, blocker := s.operandReady(t, r)
			if blocker >= 0 {
				s.parkOn(t, blocker)
				return
			}
			if ready > s.cycle {
				s.setWake(t, ready)
				return
			}
		}

		if r.isLoad() && !s.loadMayIssue(t, r, idx) {
			return
		}

		if !s.acquireFU(t, r.class, r.op, s.cycle) {
			s.setWake(t, s.fuFreeAt(t, r.class))
			return
		}

		var done int64
		switch {
		case r.isLoad():
			// A load its full ARB bank refuses proceeds untracked; the
			// ARB counts it in Stats.Refused.
			s.arb.Load(r.addr, r.addrID, uint64(t.id), r.pc)
			done = s.hier.DataAccess(r.addr, s.cycle+1)
		case r.isStore():
			t.storesLeft--
			if t.storesLeft == 0 {
				s.wakeStoreWaiters(t)
			}
			s.handleStore(t, r, idx)
			// The stored value is visible to consumers one cycle after issue;
			// the cache/bus occupancy is charged separately.
			complete := s.hier.DataAccess(r.addr, s.cycle+1)
			if complete > t.finishedAt {
				t.finishedAt = complete
			}
			done = s.cycle + 1
		default:
			done = s.cycle + opLatency[r.op]
		}

		s.done[idx] = done
		if s.hasWaiter[idx] {
			s.wakeWaiters(t, idx)
		}
		if done > t.finishedAt {
			t.finishedAt = done
		}
		t.next++
		s.changed = true
	}
}

// handleStore performs the store-side dependence work: ARB violation
// detection (and the resulting squash) and MDST signalling.  idx is the
// store's global instruction index, which is also its STID.
//
//memdep:hotpath
func (s *sim) handleStore(t *execTask, r *inst, idx int) {
	v, violated, _ := s.arb.Store(r.addr, r.addrID, uint64(t.id))
	if violated {
		s.handleViolation(t, r, v)
	}
	if s.predicting {
		// Released loads are delivered through the wakeLoad hook.
		s.mds.StoreIssue(memdep.StoreQuery{
			PC:       r.pc,
			Instance: uint64(t.id),
			STID:     int64(idx),
			Addr:     r.addr,
		})
	}
}

// handleViolation records a detected mis-speculation and squashes the
// offending task and all younger in-flight tasks.
func (s *sim) handleViolation(storeTask *execTask, storeRec *inst, v arb.Violation) {
	s.res.Misspeculations++
	pair := memdep.PairKey{LoadPC: v.LoadPC, StorePC: storeRec.pc}
	if s.res.MisspecPairs == nil {
		// Freshly allocated per run (never arena-owned): the Result escapes
		// into the engine's memoization cache and must not alias reused
		// storage.  Most runs see only a handful of distinct pairs.
		s.res.MisspecPairs = make(map[memdep.PairKey]uint64, 8)
	}
	s.res.MisspecPairs[pair]++
	for _, ddc := range s.ddcs {
		ddc.Access(pair)
	}
	if s.predicting {
		dist := v.LoadTask - v.StoreTask
		s.mds.RecordMisspeculation(pair, dist, storeTask.rec.pc)
	}
	// Squashed tasks are restarted in order: the sequencer re-walks and
	// re-dispatches them one after another, so each successive task restarts
	// a little later.  (Restarting them all in the same cycle would recreate
	// the zero-stagger situation that caused the violation in the first
	// place and lock the processor into a squash-restart resonance.)
	delay := int64(squashPenalty)
	for idx := int(v.LoadTask); idx < s.nextDispatch; idx++ {
		s.squashTask(&s.tasks[idx], delay)
		delay += squashPenalty
	}
}

// squashTask discards the task's speculative work and schedules its restart
// after the given delay.
func (s *sim) squashTask(t *execTask, delay int64) {
	if s.committed[t.id] {
		return
	}
	s.res.Squashes++
	s.res.SquashedInstructions += uint64(t.next - int(t.rec.start))
	if s.predicting {
		// Ascending instruction order keeps MDST invalidations (and any
		// predictor effects) deterministic.  LDIDs and STIDs are global
		// instruction indices.
		start := int64(t.rec.start)
		insts := s.w.insts[t.rec.start:t.rec.end]
		for i := range insts {
			r := &insts[i]
			if r.isLoad() {
				if info := &t.loadInfo[r.loadOrd]; info.seen && info.queried {
					s.mds.SquashLoad(start + int64(i))
				}
			}
		}
		for i := range t.next - int(t.rec.start) {
			if insts[i].isStore() {
				s.mds.SquashStore(start + int64(i))
			}
		}
	}
	s.arb.SquashTask(uint64(t.id))
	s.resetExecState(t, s.cycle+delay)
	s.changed = true
}

func (s *sim) result() Result {
	r := s.res
	r.Benchmark = s.w.Name
	r.Stages = s.cfg.Stages
	r.Policy = s.cfg.Policy
	r.Cycles = s.cycle
	r.Instructions = s.w.Instructions
	r.Loads = s.w.Loads
	r.Stores = s.w.Stores
	r.ARB = s.arb.Stats()
	r.Cache = s.hier.Stats()
	r.Sequencer = s.seq.Stats()
	if s.predicting {
		r.MemDep = s.mds.Stats()
	}
	if len(s.ddcs) > 0 {
		// Freshly allocated per run for the same escape reason as
		// MisspecPairs above.
		r.DDCMissRate = make(map[int]float64, len(s.ddcs))
		for _, ddc := range s.ddcs {
			r.DDCMissRate[ddc.Capacity()] = ddc.MissRate() * 100
		}
	}
	return r
}
