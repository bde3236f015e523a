package memdep

// System is the combined prediction/synchronization structure that the
// Multiscalar timing simulator drives (the implementation evaluated in
// section 5.5 of the paper): an MDPT whose entries carry synchronization
// slots, with the MDST capacity sized as Entries × SyncSlots (one slot per
// stage per static dependence).
//
// The System exposes the four dynamic events of section 4.3:
//
//	RecordMisspeculation  a mis-speculation was detected; learn the pair
//	LoadIssue             a load is about to access memory; decide whether it
//	                      must wait and on which condition variables
//	StoreIssue            a store is about to access memory; signal waiting
//	                      loads (or pre-set the condition variable)
//	CommitLoad            a load committed; update the predictor
//
// plus the bookkeeping of sections 4.4.2/4.4.3 (ReleaseLoad, SquashLoad,
// SquashStore).
//
//memdep:resettable
type System struct {
	cfg  Config //lint:reset-exempt construction-time configuration, immutable across runs
	pred Predictor
	mdst *MDST

	// onRelease, when set, is invoked synchronously from StoreIssue for
	// every load whose last awaited condition variable that store's signal
	// fills.  See SetReleaseHook.
	onRelease func(ldid int64) //lint:reset-exempt wiring owned by SetReleaseHook, not run state

	// Scratch backings for the slices returned in LoadDecision, reused
	// across calls so the per-operation hot path does not allocate.
	waitScratch  []PairKey //lint:reset-exempt scratch backing, overwritten before every read
	readyScratch []PairKey //lint:reset-exempt scratch backing, overwritten before every read

	// Prediction buffers handed to the Predictor's append-into-buffer
	// lookups, one per direction so the hot path stays allocation-free.
	loadPredScratch  []Prediction //lint:reset-exempt scratch backing, overwritten before every read
	storePredScratch []Prediction //lint:reset-exempt scratch backing, overwritten before every read

	stats SystemStats
}

// SystemStats aggregates the counters of a System.
type SystemStats struct {
	// LoadQueries counts calls to LoadIssue.
	LoadQueries uint64
	// LoadsPredictedDependent counts loads for which at least one dependence
	// (and synchronization) was predicted.
	LoadsPredictedDependent uint64
	// LoadsMadeToWait counts loads that had to wait on at least one empty
	// condition variable.
	LoadsMadeToWait uint64
	// LoadsSignalledEarly counts loads whose condition variable was already
	// full when they arrived (store signalled first; no delay).
	LoadsSignalledEarly uint64
	// StoreQueries counts calls to StoreIssue.
	StoreQueries uint64
	// StoresSignalled counts stores that matched a prediction entry and
	// performed a signal.
	StoresSignalled uint64
	// LoadsReleasedByStore counts loads released by a store's signal.
	LoadsReleasedByStore uint64
	// LoadsReleasedStale counts loads released because all prior stores
	// resolved without a signal (incomplete synchronization).
	LoadsReleasedStale uint64
	// Misspeculations counts calls to RecordMisspeculation.
	Misspeculations uint64
	// ESyncFiltered counts prediction-entry matches that ESYNC suppressed
	// because the task PC at the recorded distance did not match.
	ESyncFiltered uint64
}

// NewSystem creates a prediction/synchronization system; the prediction
// table's organization is selected by cfg.Table.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	return &System{
		cfg:  cfg,
		pred: NewPredictor(cfg),
		mdst: NewMDST(cfg.Entries * cfg.SyncSlots),
	}
}

// Config returns the effective configuration (defaults applied).
func (s *System) Config() Config { return s.cfg }

// Predictor exposes the prediction table (read-mostly; used by tests and
// tools).
func (s *System) Predictor() Predictor { return s.pred }

// MDPT exposes the prediction table under its historical name.  It returns
// the Predictor interface: the table is only an MDPT in the paper's default
// fully associative organization.
func (s *System) MDPT() Predictor { return s.pred }

// MDST exposes the synchronization table.
func (s *System) MDST() *MDST { return s.mdst }

// Stats returns a snapshot of the system counters.
func (s *System) Stats() SystemStats { return s.stats }

// SetReleaseHook registers the callback through which StoreIssue delivers
// every load it releases.  The callback runs synchronously on the caller's
// goroutine.  A nil fn removes the hook; releases are then only counted
// (SystemStats.LoadsReleasedByStore).
func (s *System) SetReleaseHook(fn func(ldid int64)) { s.onRelease = fn }

// LoadQuery carries the dynamic context of a load that is about to access
// the memory hierarchy.
type LoadQuery struct {
	// PC is the load's instruction address.
	PC uint64
	// Instance is the load's instance number; the Multiscalar implementation
	// approximates it with the dynamic task number (stage identifiers in the
	// paper).
	Instance uint64
	// LDID uniquely identifies this dynamic load within the current
	// instruction window (for example reservation-station index or simulator
	// sequence number).
	LDID int64
	// Addr is the load's effective address (used only by the address-tagging
	// ablation).
	Addr uint64
	// TaskPCAt returns the task PC of the task with the given instance
	// number, when it is still in the processor's window.  It is consulted by
	// the ESYNC predictor; a nil function disables the filter.
	TaskPCAt func(instance uint64) (uint64, bool)
}

// LoadDecision is the outcome of LoadIssue.  The pair slices share reusable
// backing arrays owned by the System: they are valid until the next LoadIssue
// call and must be copied to be retained.
type LoadDecision struct {
	// Predicted reports whether at least one dependence was predicted (after
	// any ESYNC filtering).
	Predicted bool
	// Wait reports whether the load must wait for at least one signal.
	Wait bool
	// WaitPairs lists the static dependences the load is waiting on.
	WaitPairs []PairKey
	// ReadyPairs lists predicted dependences whose condition variable was
	// already full (no waiting necessary).
	ReadyPairs []PairKey
}

// instanceTag selects how dynamic instances are distinguished: by instance
// number (dependence distance scheme) or by effective address (ablation).
func (s *System) loadInstanceTag(q LoadQuery) uint64 {
	if s.cfg.TagByAddress {
		return q.Addr
	}
	return q.Instance
}

// LoadIssue processes a load that is ready to access memory.  It looks up the
// MDPT by the load's PC; for every matching entry whose predictor warrants
// synchronization it either consumes an already-full condition variable or
// allocates a waiting entry in the MDST.
//
//memdep:hotpath
func (s *System) LoadIssue(q LoadQuery) LoadDecision {
	s.stats.LoadQueries++
	s.waitScratch = s.waitScratch[:0]
	s.readyScratch = s.readyScratch[:0]
	var d LoadDecision
	s.loadPredScratch = s.pred.MatchesForLoad(q.PC, s.loadPredScratch[:0])
	for _, pred := range s.loadPredScratch {
		if !pred.Sync {
			continue
		}
		// ESYNC: enforce the synchronization only if the task at the recorded
		// dependence distance is the task that issued the store last time.
		if s.cfg.Predictor == PredictESync && q.TaskPCAt != nil && !s.cfg.TagByAddress {
			if q.Instance >= pred.Dist {
				if pc, ok := q.TaskPCAt(q.Instance - pred.Dist); ok && pc != pred.StoreTaskPC {
					s.stats.ESyncFiltered++
					continue
				}
			}
		}
		d.Predicted = true
		tag := s.loadInstanceTag(q)
		if s.mdst.AllocWaiting(pred.Pair, tag, q.LDID) {
			d.Wait = true
			s.waitScratch = append(s.waitScratch, pred.Pair) //lint:alloc-ok reusable scratch, growth amortized across queries
		} else {
			s.readyScratch = append(s.readyScratch, pred.Pair) //lint:alloc-ok reusable scratch, growth amortized across queries
		}
	}
	if len(s.waitScratch) > 0 {
		d.WaitPairs = s.waitScratch
	}
	if len(s.readyScratch) > 0 {
		d.ReadyPairs = s.readyScratch
	}
	if d.Predicted {
		s.stats.LoadsPredictedDependent++
	}
	if d.Wait {
		s.stats.LoadsMadeToWait++
	} else if len(d.ReadyPairs) > 0 {
		s.stats.LoadsSignalledEarly++
	}
	return d
}

// StoreQuery carries the dynamic context of a store that is about to access
// the memory hierarchy.
type StoreQuery struct {
	// PC is the store's instruction address.
	PC uint64
	// Instance is the store's instance number (task number).
	Instance uint64
	// STID uniquely identifies this dynamic store within the window.
	STID int64
	// TaskPC is the PC of the task that issued the store (recorded for the
	// ESYNC predictor when a mis-speculation is learned; also informational
	// here).
	TaskPC uint64
	// Addr is the store's effective address (address-tagging ablation).
	Addr uint64
}

// StoreIssue processes a store that is ready to access memory.  For every
// matching prediction entry it computes the instance number of the load to
// synchronize (store instance + dependence distance) and performs the signal
// in the MDST, delivering each load it releases to the release hook.  It
// reports whether the store matched at least one prediction entry that
// warrants synchronization.
//
//memdep:hotpath
func (s *System) StoreIssue(q StoreQuery) bool {
	s.stats.StoreQueries++
	matched := false
	s.storePredScratch = s.pred.MatchesForStore(q.PC, s.storePredScratch[:0])
	for _, pred := range s.storePredScratch {
		if !pred.Sync {
			continue
		}
		matched = true
		var tag uint64
		if s.cfg.TagByAddress {
			tag = q.Addr
		} else {
			tag = q.Instance + pred.Dist
		}
		// A load released by one signal may still be waiting for other
		// predicted dependences (section 4.4.4); release it only when no
		// empty entries remain.
		if ldid, released := s.mdst.Signal(pred.Pair, tag, q.STID); released && !s.mdst.HasWaiter(ldid) {
			s.stats.LoadsReleasedByStore++
			if s.onRelease != nil {
				s.onRelease(ldid)
			}
		}
	}
	if matched {
		s.stats.StoresSignalled++
	}
	return matched
}

// ReleaseLoad frees the condition variables of a load that is being allowed
// to proceed because all prior stores have resolved without a signal
// (incomplete synchronization, section 4.4.2).  The corresponding prediction
// entries are weakened, since the predicted dependences did not materialise.
// It returns the number of entries freed.
func (s *System) ReleaseLoad(ldid int64) int {
	freed := s.mdst.ReleaseLoad(ldid)
	for _, pair := range freed {
		s.pred.Weaken(pair)
	}
	if len(freed) > 0 {
		s.stats.LoadsReleasedStale++
	}
	return len(freed)
}

// SquashLoad invalidates any condition variables allocated to a load that is
// being squashed (section 4.4.3).  Unlike ReleaseLoad it does not touch the
// predictor: updates are non-speculative.
func (s *System) SquashLoad(ldid int64) int {
	return len(s.mdst.ReleaseLoad(ldid))
}

// SquashStore invalidates condition variables pre-set by a store that is
// being squashed and that no load has consumed.
func (s *System) SquashStore(stid int64) int {
	return len(s.mdst.ReleaseStore(stid))
}

// RecordMisspeculation teaches the prediction table that the given static
// pair caused a mis-speculation at the given dependence distance.
func (s *System) RecordMisspeculation(pair PairKey, dist uint64, storeTaskPC uint64) {
	s.stats.Misspeculations++
	s.pred.RecordMisspeculation(pair, dist, storeTaskPC)
}

// CommitLoad updates the predictor non-speculatively when a load commits.
// waitedPairs are the dependences the load actually waited on; actualStorePC
// is the PC of the store that actually produced the value the load read from
// an earlier in-flight task, or zero if the load had no such dependence.
// Pairs whose wait was justified (the producer matched) are strengthened;
// pairs that delayed the load for a different (or no) producer are weakened.
// The pair naming the actual producer is strengthened even when the load did
// not have to wait for it (its condition variable had already been set), so
// that confirmed dependences do not decay.
func (s *System) CommitLoad(loadPC uint64, actualStorePC uint64, waitedPairs []PairKey) {
	for _, pair := range waitedPairs {
		if pair.LoadPC != loadPC {
			continue
		}
		if actualStorePC != 0 && pair.StorePC == actualStorePC {
			s.pred.Strengthen(pair)
		} else {
			s.pred.Weaken(pair)
		}
	}
	if actualStorePC != 0 {
		waited := false
		for _, pair := range waitedPairs {
			if pair.LoadPC == loadPC && pair.StorePC == actualStorePC {
				waited = true
				break
			}
		}
		if !waited {
			s.pred.Strengthen(PairKey{LoadPC: loadPC, StorePC: actualStorePC})
		}
	}
}

// Reset clears both tables and the counters.
func (s *System) Reset() {
	s.pred.Reset()
	s.mdst.Reset()
	s.stats = SystemStats{}
}
