package memdep

import (
	"reflect"
	"testing"
)

// resetRand is a fixed-seed xorshift64 so every reset-equivalence drive is
// deterministic and identical across instances.
type resetRand uint64

func (r *resetRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = resetRand(x)
	return x
}

func (r *resetRand) pair() PairKey {
	return PairKey{
		LoadPC:  0x1000 + (r.next()%24)*4,
		StorePC: 0x2000 + (r.next()%24)*4,
	}
}

// TestResetEquivalence is the reset-completeness regression gate for the
// prediction subsystem: driving a deterministic workload on an instance,
// Resetting it and driving the same workload again must observably match a
// fresh instance's run.  Any field Reset forgets -- LRU clocks, index maps,
// counters -- diverges the digests.  (The resetcomplete analyzer proves every
// field is mentioned; this proves the mentioned clears actually restore
// initial behavior.)
func TestResetEquivalence(t *testing.T) {
	cfg := Config{Entries: 16, SyncSlots: 8, Ways: 4}
	cases := []struct {
		name  string
		fresh func() any
		drive func(r any) any
	}{
		{
			name:  "MDPT",
			fresh: func() any { return NewMDPT(cfg) },
			drive: func(r any) any { return drivePredictor(r.(Predictor)) },
		},
		{
			name:  "SetAssocMDPT",
			fresh: func() any { return NewMDPT(Config{Entries: 16, Ways: 4, Table: TableSetAssoc}) },
			drive: func(r any) any { return drivePredictor(r.(Predictor)) },
		},
		{
			name:  "StoreSetPredictor",
			fresh: func() any { return NewStoreSetPredictor(cfg) },
			drive: func(r any) any { return drivePredictor(r.(Predictor)) },
		},
		{
			name:  "MDST",
			fresh: func() any { return NewMDST(8, testIDs) },
			drive: func(r any) any { return driveMDST(r.(*MDST)) },
		},
		{
			name:  "DDC",
			fresh: func() any { return NewDDC(8) },
			drive: func(r any) any { return driveDDC(r.(*DDC)) },
		},
		{
			name:  "System",
			fresh: func() any { return newSizedSystem(cfg) },
			drive: func(r any) any { return driveSystem(r.(*System)) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused := tc.fresh()
			tc.drive(reused)
			switch r := reused.(type) {
			case *MDST:
				r.Reset(testIDs)
			case *System:
				r.Reset(testIDs)
			default:
				r.(interface{ Reset() }).Reset()
			}
			got := tc.drive(reused)
			want := tc.drive(tc.fresh())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drive after Reset diverges from fresh instance:\nreset: %+v\nfresh: %+v", got, want)
			}
		})
	}
}

// drivePredictor exercises every Predictor entry point with enough pressure
// to force replacements in a 16-entry table.
func drivePredictor(p Predictor) any {
	rnd := resetRand(1)
	var digest []any
	for i := 0; i < 400; i++ {
		pair := rnd.pair()
		switch i % 6 {
		case 0, 1:
			p.RecordMisspeculation(pair, rnd.next()%4, 0x3000+(rnd.next()%8)*4)
		case 2:
			p.Strengthen(pair)
		case 3:
			p.Weaken(pair)
		case 4:
			e, ok := lookup(p, pair)
			digest = append(digest, e, ok)
		case 5:
			preds := p.MatchesForLoad(pair.LoadPC, nil)
			digest = append(digest, append([]Prediction(nil), preds...))
			preds = p.MatchesForStore(pair.StorePC, nil)
			digest = append(digest, append([]Prediction(nil), preds...))
		}
	}
	return append(digest, tableState(p))
}

// driveMDST allocates, signals and releases synchronization entries,
// overflowing the 8-entry table so the victim path runs too.
func driveMDST(m *MDST) any {
	rnd := resetRand(2)
	var digest []any
	for i := 0; i < 200; i++ {
		pair := rnd.pair()
		inst := rnd.next() % 8
		id := int64(rnd.next() % 16)
		switch i % 5 {
		case 0, 1:
			digest = append(digest, m.AllocWaiting(pair, inst, id))
		case 2:
			ldid, released := m.Signal(pair, inst, id)
			digest = append(digest, ldid, released)
		case 3:
			digest = append(digest, append([]PairKey(nil), m.ReleaseLoad(id)...))
		case 4:
			digest = append(digest, append([]PairKey(nil), m.ReleaseStore(id)...), m.HasWaiter(id))
		}
	}
	for id := int64(0); id < 16; id++ {
		digest = append(digest, m.HasWaiter(id))
	}
	return append(digest, liveSync(m))
}

// driveDDC thrashes the 8-entry dependence cache to exercise LRU eviction.
func driveDDC(d *DDC) any {
	rnd := resetRand(3)
	var digest []any
	for i := 0; i < 100; i++ {
		digest = append(digest, d.Access(rnd.pair()))
	}
	return append(digest, d.used, d.hits, d.misses)
}

// driveSystem runs the full load/store protocol: issue, signal, release,
// squash, commit and mis-speculation learning.
func driveSystem(s *System) any {
	rnd := resetRand(4)
	rel := hookReleases(s)
	var digest []any
	for i := 0; i < 300; i++ {
		pair := rnd.pair()
		inst := rnd.next() % 8
		id := int64(rnd.next() % 16)
		switch i % 7 {
		case 0, 1:
			dec := s.LoadIssue(LoadQuery{PC: pair.LoadPC, Instance: inst, LDID: id})
			digest = append(digest, dec.Predicted, dec.Wait,
				append([]PairKey(nil), dec.WaitPairs...))
		case 2, 3:
			matched := s.StoreIssue(StoreQuery{PC: pair.StorePC, Instance: inst, STID: id})
			digest = append(digest, matched, rel.take())
		case 4:
			s.RecordMisspeculation(pair, rnd.next()%4, 0x3000)
		case 5:
			digest = append(digest, s.ReleaseLoad(id), s.SquashStore(id))
		case 6:
			digest = append(digest, s.SquashLoad(id))
			s.CommitLoad(pair.LoadPC, pair.StorePC, nil)
		}
	}
	return append(digest, s.Stats())
}
