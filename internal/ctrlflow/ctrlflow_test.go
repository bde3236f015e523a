package ctrlflow

import (
	"testing"
)

func TestPathPredictorLearnsRepeatingSequence(t *testing.T) {
	p := NewPathPredictor(10, 2)
	seq := []uint64{0x100, 0x200, 0x300, 0x400}
	// Train over the repeating sequence; after warm-up the predictor should
	// predict nearly every transition correctly.
	var correct, total int
	for round := 0; round < 50; round++ {
		for i := range seq {
			cur := seq[i]
			next := seq[(i+1)%len(seq)]
			if got, known := predict(p, cur); known && got == next && round > 2 {
				correct++
			}
			if round > 2 {
				total++
			}
			p.Update(cur, next)
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.95 {
		t.Errorf("predictor learned %d/%d of a fixed sequence", correct, total)
	}
	if p.Accuracy() < 0.8 {
		t.Errorf("accuracy = %v, want >= 0.8", p.Accuracy())
	}
}

func TestPathPredictorPathSensitivity(t *testing.T) {
	// The successor of task B depends on which task preceded it (A1 or A2).
	// A plain last-target predictor cannot get both right; a path-based one
	// can.
	p := NewPathPredictor(12, 3)
	var correct, total int
	for round := 0; round < 200; round++ {
		if round%2 == 0 {
			p.Update(0xA1, 0xB0)
			if got, known := predict(p, 0xB0); known && round > 20 {
				total++
				if got == 0xC1 {
					correct++
				}
			}
			p.Update(0xB0, 0xC1)
			p.Update(0xC1, 0xA2)
		} else {
			p.Update(0xA2, 0xB0)
			if got, known := predict(p, 0xB0); known && round > 20 {
				total++
				if got == 0xC2 {
					correct++
				}
			}
			p.Update(0xB0, 0xC2)
			p.Update(0xC2, 0xA1)
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.9 {
		t.Errorf("path-sensitive prediction %d/%d", correct, total)
	}
}

func TestPathPredictorUnknownInitially(t *testing.T) {
	p := NewPathPredictor(8, 2)
	if _, known := predict(p, 0x100); known {
		t.Error("untrained predictor must not claim to know")
	}
}

func TestPathPredictorHysteresis(t *testing.T) {
	p := NewPathPredictor(8, 1)
	// Warm up: once the path history is stable (always the same task PC), the
	// same table entry is trained repeatedly and gains confidence.
	for i := 0; i < 4; i++ {
		p.Update(0x100, 0x200)
	}
	if got, known := predict(p, 0x100); !known || got != 0x200 {
		t.Fatalf("trained prediction = %#x (known=%v), want 0x200", got, known)
	}
	// One outlier must not immediately retrain the confident entry.
	p.Update(0x100, 0x999)
	if got, known := predict(p, 0x100); !known || got != 0x200 {
		t.Errorf("after one outlier prediction = %#x (known=%v), want 0x200", got, known)
	}
	// A second consecutive mispredict retrains it.
	p.Update(0x100, 0x999)
	if got, _ := predict(p, 0x100); got != 0x999 {
		t.Errorf("after two outliers prediction = %#x, want 0x999", got)
	}
}

func TestPathPredictorBoundsClamped(t *testing.T) {
	p := NewPathPredictor(0, 0)
	if len(p.entries) != 1<<4 {
		t.Errorf("table size = %d, want %d", len(p.entries), 1<<4)
	}
	big := NewPathPredictor(30, 1)
	if len(big.entries) != 1<<24 {
		t.Errorf("table size = %d, want clamped to 2^24", len(big.entries))
	}
}

func TestPathPredictorReset(t *testing.T) {
	p := NewPathPredictor(8, 2)
	p.Update(1, 2)
	p.Reset()
	if _, known := predict(p, 1); known {
		t.Error("reset must clear the table")
	}
	if p.predictions != 0 {
		t.Error("reset must clear counters")
	}
}

func TestSequencerDispatch(t *testing.T) {
	s := NewSequencer()
	// First task: nothing known about the predecessor.
	out := s.Dispatch(0, false, 0x100)
	if !out.PredictedCorrectly {
		t.Error("first dispatch must not be charged as a misprediction")
	}
	if out.DescriptorHit {
		t.Error("first descriptor access must miss")
	}
	// Train the A->B->A alternation long enough for the path history to
	// stabilise, then check the steady state.
	for i := 0; i < 10; i++ {
		s.Dispatch(0x100, true, 0x200)
		out = s.Dispatch(0x200, true, 0x100)
	}
	if !out.PredictedCorrectly {
		t.Error("trained transition must be predicted correctly")
	}
	if !out.DescriptorHit {
		t.Error("warm descriptor must hit")
	}
	st := s.Stats()
	if st.TaskDispatches != 21 {
		t.Errorf("dispatches = %d, want 21", st.TaskDispatches)
	}
	if st.DescriptorMisses == 0 {
		t.Error("expected at least one descriptor miss")
	}
}

func TestSequencerReset(t *testing.T) {
	s := NewSequencer()
	s.Dispatch(0, false, 0x100)
	s.Dispatch(0x100, true, 0x200)
	s.Reset()
	if st := s.Stats(); st != (SequencerStats{}) {
		t.Errorf("stats after reset = %+v, want zero", st)
	}
	if s.Dispatch(0, false, 0x100).DescriptorHit {
		t.Error("reset must clear the descriptor cache")
	}
}

// predict returns the predicted starting PC of the task that follows the
// task at currentTaskPC, and whether the predictor has an opinion at all.
func predict(p *PathPredictor, currentTaskPC uint64) (next uint64, known bool) {
	e := p.entries[p.index(currentTaskPC)]
	if !e.valid {
		return 0, false
	}
	return e.target, true
}
