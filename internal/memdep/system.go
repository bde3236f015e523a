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
	cfg  Config //lint:reset-exempt configuration, changed only by Configure
	pred Predictor
	mdst *MDST

	// onRelease, when set, is invoked synchronously from StoreIssue for
	// every load whose last awaited condition variable that store's signal
	// fills.  See SetReleaseHook.
	onRelease func(ldid int64) //lint:reset-exempt wiring owned by SetReleaseHook, not run state

	// Scratch backing for LoadDecision.WaitPairs, reused across calls so
	// the per-operation hot path does not allocate.
	waitScratch []PairKey //lint:reset-exempt scratch backing, overwritten before every read

	// Prediction buffers handed to the Predictor's append-into-buffer
	// lookups, one per direction so the hot path stays allocation-free.
	loadPredScratch  []Prediction //lint:reset-exempt scratch backing, overwritten before every read
	storePredScratch []Prediction //lint:reset-exempt scratch backing, overwritten before every read

	stats SystemStats
}

// SystemStats aggregates the counters of a System.  The JSON tags are the
// field names of the public facade's result ("memdep" object).
type SystemStats struct {
	// LoadQueries counts MDPT lookups made by issuing loads: one per
	// LoadIssue call.
	LoadQueries uint64 `json:"load_queries"`
	// LoadsPredictedDependent counts loads for which at least one dependence
	// (and synchronization) was predicted.
	LoadsPredictedDependent uint64 `json:"loads_predicted_dependent"`
	// LoadsMadeToWait counts predicted loads that allocated at least one
	// empty condition variable in the MDST and had to wait on it.
	LoadsMadeToWait uint64 `json:"loads_made_to_wait"`
	// LoadsSignalledEarly counts loads whose condition variable was already
	// full when they arrived (store signalled first; no delay).
	LoadsSignalledEarly uint64 `json:"loads_signalled_early"`
	// StoreQueries counts MDPT lookups made by issuing stores: one per
	// StoreIssue call.
	StoreQueries uint64 `json:"store_queries"`
	// StoresSignalled counts stores that matched a prediction entry and
	// performed a signal.
	StoresSignalled uint64 `json:"stores_signalled"`
	// LoadsReleasedByStore counts waiting loads released by a store's signal.
	LoadsReleasedByStore uint64 `json:"loads_released_by_store"`
	// LoadsReleasedStale counts waiting loads released because all prior
	// stores resolved without a signal (incomplete synchronization).
	LoadsReleasedStale uint64 `json:"loads_released_stale"`
	// Misspeculations counts the dependence violations reported to the
	// predictor: one per RecordMisspeculation call.
	Misspeculations uint64 `json:"misspeculations"`
	// ESyncFiltered counts prediction-entry matches that ESYNC suppressed
	// because the task PC at the recorded distance did not match.
	ESyncFiltered uint64 `json:"esync_filtered"`
}

// NewSystem creates a prediction/synchronization system; the prediction
// table's organization is selected by cfg.Table.  Reset sizes it for a run's
// load and store identifiers before the first event.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	return &System{
		cfg:  cfg,
		pred: NewPredictor(cfg),
		mdst: NewMDST(cfg.Entries*cfg.SyncSlots, 0),
	}
}

// Configure rebuilds the tables for cfg, unless they already have it.  The
// synchronization table keeps the identifier storage Reset sized, so a
// simulator arena that alternates configurations (the stage count sets
// SyncSlots) does not re-allocate it.  Reset must follow before the next
// event.
func (s *System) Configure(cfg Config) {
	cfg = cfg.withDefaults()
	if cfg == s.cfg {
		return
	}
	s.cfg = cfg
	s.pred = NewPredictor(cfg)
	s.mdst.resize(cfg.Entries * cfg.SyncSlots)
}

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
	// instruction window (the simulator uses the load's instruction index
	// in the work item); it lies in [0, ids) of the last Reset.
	LDID int64
	// Addr is the load's effective address (used only by the address-tagging
	// ablation).
	Addr uint64
	// TaskPCAt returns the task PC of the task with the given instance
	// number, when it is still in the processor's window.  It is consulted by
	// the ESYNC predictor; a nil function disables the filter.
	TaskPCAt func(instance uint64) (uint64, bool)
}

// LoadDecision is the outcome of LoadIssue.  WaitPairs shares a reusable
// backing array owned by the System: it is valid until the next LoadIssue
// call and must be copied to be retained.
type LoadDecision struct {
	// Predicted reports whether at least one dependence was predicted (after
	// any ESYNC filtering).
	Predicted bool
	// Wait reports whether the load must wait for at least one signal.
	Wait bool
	// WaitPairs lists the static dependences the load is waiting on.
	WaitPairs []PairKey
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
	var d LoadDecision
	// ready records a predicted dependence whose condition variable was
	// already full: the store signalled first and the load need not wait.
	ready := false
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
			ready = true
		}
	}
	if len(s.waitScratch) > 0 {
		d.WaitPairs = s.waitScratch
	}
	if d.Predicted {
		s.stats.LoadsPredictedDependent++
	}
	if d.Wait {
		s.stats.LoadsMadeToWait++
	} else if ready {
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
	// STID uniquely identifies this dynamic store within the window; it
	// lies in [0, ids) of the last Reset.
	STID int64
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

// Reset clears both tables and the counters, readying the system for a run
// whose load and store identifiers (LDID, STID) lie in [0, ids).
func (s *System) Reset(ids int) {
	s.pred.Reset()
	s.mdst.Reset(ids)
	s.stats = SystemStats{}
}
