// Package ctrlflow provides the control-flow machinery of the Multiscalar
// sequencer: a path-based next-task predictor (after Jacobson et al.,
// reference [13] of the paper) and a task descriptor cache.  The sequencer of
// section 5.2 uses a 1024-entry 2-way set associative task descriptor cache,
// a path-based control flow predictor, and a 64-entry return address stack.
// The return address stack is not modelled: next-task prediction comes from
// the path predictor alone.
package ctrlflow

import "memdep/internal/cache"

// PathPredictor predicts the next task's starting PC from a hashed history of
// recent task PCs.  It is a tagless first-level table indexed by the path
// hash; each entry holds the predicted successor and a hysteresis bit.
//
//memdep:resettable
type PathPredictor struct {
	tableBits  int //lint:reset-exempt table geometry fixed at construction
	historyLen int //lint:reset-exempt table geometry fixed at construction
	entries    []pathEntry
	// history is a fixed-capacity ring buffer of the last historyLen task
	// PCs: histCount live elements starting at histStart, oldest first.  A
	// ring (rather than an appended-and-trimmed slice) keeps Update free of
	// steady-state allocations.
	history     []uint64 //lint:reset-exempt ring storage dead once histCount is zeroed
	histStart   int
	histCount   int
	predictions uint64
	correct     uint64
}

type pathEntry struct {
	valid     bool
	target    uint64
	confident bool
}

// NewPathPredictor creates a predictor with 2^tableBits entries and the given
// path history length.
func NewPathPredictor(tableBits, historyLen int) *PathPredictor {
	if tableBits < 4 {
		tableBits = 4
	}
	if tableBits > 24 {
		tableBits = 24
	}
	if historyLen < 1 {
		historyLen = 1
	}
	return &PathPredictor{
		tableBits:  tableBits,
		historyLen: historyLen,
		entries:    make([]pathEntry, 1<<tableBits),
		history:    make([]uint64, historyLen),
	}
}

// index hashes the current task PC and the path history into the table.  The
// ring is walked oldest→newest with i as the position from the oldest entry,
// reproducing the original slice-ordered hash exactly.
func (p *PathPredictor) index(currentTaskPC uint64) uint64 {
	h := currentTaskPC * 0x9e3779b97f4a7c15
	for i := 0; i < p.histCount; i++ {
		pc := p.history[(p.histStart+i)%p.historyLen]
		h ^= (pc + uint64(i)*0x517cc1b727220a95) << (uint64(i%7) + 1)
	}
	return (h >> 3) & uint64(len(p.entries)-1)
}

// Update trains the predictor with the observed successor of the task at
// currentTaskPC and advances the path history.  It returns whether the
// prediction (if any) was correct, which the caller typically uses to charge
// a misprediction penalty.
func (p *PathPredictor) Update(currentTaskPC, actualNext uint64) bool {
	idx := p.index(currentTaskPC)
	e := &p.entries[idx]
	p.predictions++
	wasCorrect := e.valid && e.target == actualNext
	if wasCorrect {
		p.correct++
		e.confident = true
	} else {
		if e.valid && e.confident {
			// First mispredict only clears the hysteresis bit.
			e.confident = false
		} else {
			*e = pathEntry{valid: true, target: actualNext, confident: false}
		}
	}
	// Advance the path history with the task we just left, overwriting the
	// oldest entry once the window is full.
	if p.histCount < p.historyLen {
		p.history[(p.histStart+p.histCount)%p.historyLen] = currentTaskPC
		p.histCount++
	} else {
		p.history[p.histStart] = currentTaskPC
		p.histStart = (p.histStart + 1) % p.historyLen
	}
	return wasCorrect
}

// Accuracy returns the fraction of Update calls whose prior prediction was
// correct.
func (p *PathPredictor) Accuracy() float64 {
	if p.predictions == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.predictions)
}

// Reset clears the table, history and counters.
func (p *PathPredictor) Reset() {
	for i := range p.entries {
		p.entries[i] = pathEntry{}
	}
	p.histStart, p.histCount = 0, 0
	p.predictions, p.correct = 0, 0
}

// Sequencer bundles the control-flow structures of the Multiscalar global
// sequencer: the path-based next-task predictor and the task descriptor
// cache.
//
//memdep:resettable
type Sequencer struct {
	predictor *PathPredictor
	descCache *cache.SetAssoc

	descriptorMisses uint64
	mispredictions   uint64
	taskDispatches   uint64
}

// The section 5.2 sequencer: a 2^14-entry path predictor over 4 tasks of
// history and a 1024-entry 2-way task descriptor cache.
const (
	predictorBits     = 14
	pathLength        = 4
	descriptorEntries = 1024
	descriptorWays    = 2
)

// NewSequencer creates the sequencer structures at the paper's sizes.
func NewSequencer() *Sequencer {
	return &Sequencer{
		predictor: NewPathPredictor(predictorBits, pathLength),
		// Each task descriptor is one 64-byte block.
		descCache: cache.MustNewSetAssoc(descriptorEntries*64, descriptorWays, 64),
	}
}

// DispatchOutcome reports the cost drivers of dispatching one task.
type DispatchOutcome struct {
	// PredictedCorrectly is false when the sequencer's next-task prediction
	// for the previous task did not name this task.
	PredictedCorrectly bool
	// DescriptorHit is false when the task descriptor had to be fetched from
	// memory.
	DescriptorHit bool
}

// Dispatch records the dispatch of the task at nextTaskPC following the task
// at prevTaskPC, training the predictor and touching the descriptor cache.
// For the very first task pass prevKnown == false.
func (s *Sequencer) Dispatch(prevTaskPC uint64, prevKnown bool, nextTaskPC uint64) DispatchOutcome {
	s.taskDispatches++
	out := DispatchOutcome{PredictedCorrectly: true, DescriptorHit: true}
	if prevKnown {
		if !s.predictor.Update(prevTaskPC, nextTaskPC) {
			out.PredictedCorrectly = false
			s.mispredictions++
		}
	}
	if !s.descCache.Access(nextTaskPC) {
		out.DescriptorHit = false
		s.descriptorMisses++
	}
	return out
}

// SequencerStats summarises sequencer activity.  The JSON tags are the field
// names of the public facade's result ("sequencer" object).
type SequencerStats struct {
	TaskDispatches   uint64  `json:"task_dispatches"`    // TaskDispatches counts tasks assigned to processing units.
	Mispredictions   uint64  `json:"mispredictions"`     // Mispredictions counts dispatches the next-task predictor did not foresee.
	DescriptorMisses uint64  `json:"descriptor_misses"`  // DescriptorMisses counts task-descriptor cache misses.
	PredictorAcc     float64 `json:"predictor_accuracy"` // PredictorAcc is the next-task predictor hit rate in [0, 1].
}

// Stats returns a snapshot of the counters.
func (s *Sequencer) Stats() SequencerStats {
	return SequencerStats{
		TaskDispatches:   s.taskDispatches,
		Mispredictions:   s.mispredictions,
		DescriptorMisses: s.descriptorMisses,
		PredictorAcc:     s.predictor.Accuracy(),
	}
}

// Reset clears all structures and counters.
func (s *Sequencer) Reset() {
	s.predictor.Reset()
	s.descCache.Reset()
	s.descriptorMisses, s.mispredictions, s.taskDispatches = 0, 0, 0
}
