package ctrlflow

import (
	"reflect"
	"testing"
)

// xorshift64 with a fixed seed keeps the drives deterministic.
type resetRand uint64

func (r *resetRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = resetRand(x)
	return x
}

// TestResetEquivalence drives each control-flow structure, Resets it and
// drives it again: the second drive must observably match a fresh instance.
// A leaked path-history ring, predictor entry or descriptor-cache line
// diverges the digests.
func TestResetEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() interface{ Reset() }
		drive func(r interface{ Reset() }) any
	}{
		{
			name:  "PathPredictor",
			fresh: func() interface{ Reset() } { return NewPathPredictor(6, 3) },
			drive: func(r interface{ Reset() }) any {
				p := r.(*PathPredictor)
				rnd := resetRand(1)
				var digest []any
				for i := 0; i < 300; i++ {
					cur := 0x100 + (rnd.next()%16)*8
					next, known := predict(p, cur)
					digest = append(digest, next, known, p.Update(cur, 0x100+(rnd.next()%16)*8))
				}
				return append(digest, p.predictions, p.Accuracy())
			},
		},
		{
			name:  "Sequencer",
			fresh: func() interface{ Reset() } { return NewSequencer() },
			drive: func(r interface{ Reset() }) any {
				s := r.(*Sequencer)
				rnd := resetRand(3)
				var digest []any
				prev, known := uint64(0x100), false
				for i := 0; i < 300; i++ {
					next := 0x100 + (rnd.next()%12)*8
					digest = append(digest, s.Dispatch(prev, known, next))
					prev, known = next, true
				}
				return append(digest, s.Stats())
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused := tc.fresh()
			tc.drive(reused)
			reused.Reset()
			got := tc.drive(reused)
			want := tc.drive(tc.fresh())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drive after Reset diverges from fresh instance:\nreset: %+v\nfresh: %+v", got, want)
			}
		})
	}
}
