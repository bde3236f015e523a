package memdep

import (
	"fmt"
	"reflect"
	"testing"
)

// allTableKinds returns every defined organization.
func allTableKinds() []TableKind {
	return []TableKind{TableFullAssoc, TableSetAssoc, TableStoreSet}
}

func TestTableKindStringParseRoundTrip(t *testing.T) {
	for _, k := range allTableKinds() {
		got, err := ParseTableKind(k.String())
		if err != nil {
			t.Errorf("ParseTableKind(%q): %v", k.String(), err)
			continue
		}
		if got != k {
			t.Errorf("ParseTableKind(String(%v)) = %v", k, got)
		}
		if !k.Valid() {
			t.Errorf("%v must be valid", k)
		}
	}
	// Case-insensitive, like policy.Parse.
	for name, want := range map[string]TableKind{"FULL": TableFullAssoc, "SetAssoc": TableSetAssoc, " storeset ": TableStoreSet} {
		if got, err := ParseTableKind(name); err != nil || got != want {
			t.Errorf("ParseTableKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseTableKind("bogus"); err == nil {
		t.Error("unknown table kind must fail to parse")
	}
	if TableKind(42).Valid() {
		t.Error("out-of-range table kind must be invalid")
	}
	if TableKind(42).String() == "" {
		t.Error("unknown table kind must produce a string")
	}
}

func TestNewPredictorSelectsOrganization(t *testing.T) {
	for _, k := range allTableKinds() {
		p := NewPredictor(Config{Entries: 16, Table: k})
		if p.Kind() != k {
			t.Errorf("NewPredictor(%v).Kind() = %v", k, p.Kind())
		}
	}
	if _, ok := NewPredictor(Config{}).(*MDPT); !ok {
		t.Error("default organization must be the fully associative MDPT")
	}
	if _, ok := NewPredictor(Config{Table: TableSetAssoc}).(*SetAssocMDPT); !ok {
		t.Error("TableSetAssoc must build a SetAssocMDPT")
	}
	if _, ok := NewPredictor(Config{Table: TableStoreSet}).(*StoreSetPredictor); !ok {
		t.Error("TableStoreSet must build a StoreSetPredictor")
	}
}

// TestPredictorConformance drives every organization through the same
// learn/lookup/strengthen/weaken/reset scenario.
func TestPredictorConformance(t *testing.T) {
	for _, kind := range allTableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := NewPredictor(Config{Entries: 16, SyncSlots: 4, Predictor: PredictSync, Table: kind, Ways: 4})
			pair := PairKey{LoadPC: 0x400, StorePC: 0x200}

			if _, ok := p.Lookup(pair); ok {
				t.Fatal("empty table must not contain the pair")
			}
			if got := p.MatchesForLoad(pair.LoadPC, nil); len(got) != 0 {
				t.Fatalf("empty table matched: %v", got)
			}

			p.RecordMisspeculation(pair, 2, 0x1000)
			pred, ok := p.Lookup(pair)
			if !ok {
				t.Fatal("pair must be present after a mis-speculation")
			}
			if pred.Pair != pair || pred.Dist != 2 || pred.StoreTaskPC != 0x1000 {
				t.Errorf("prediction = %+v", pred)
			}
			if !pred.Sync {
				t.Error("freshly allocated entry must predict synchronization")
			}

			ld := p.MatchesForLoad(pair.LoadPC, nil)
			if len(ld) != 1 || ld[0].Pair != pair {
				t.Errorf("load matches = %v", ld)
			}
			st := p.MatchesForStore(pair.StorePC, nil)
			if len(st) != 1 || st[0].Pair != pair || st[0].Dist != 2 {
				t.Errorf("store matches = %v", st)
			}

			// Counters saturate in [0, 7] and cross the threshold both ways.
			for i := 0; i < 20; i++ {
				p.Strengthen(pair)
			}
			if pred, _ = p.Lookup(pair); pred.Counter != 7 {
				t.Errorf("counter = %d, want saturation at 7", pred.Counter)
			}
			for i := 0; i < 20; i++ {
				p.Weaken(pair)
			}
			if pred, _ = p.Lookup(pair); pred.Counter != 0 || pred.Sync {
				t.Errorf("fully weakened entry = %+v, want counter 0, no sync", pred)
			}

			// Strengthen/Weaken of unknown pairs must not allocate.
			before := p.Len()
			p.Strengthen(PairKey{LoadPC: 0x9999, StorePC: 0x8888})
			p.Weaken(PairKey{LoadPC: 0x9999, StorePC: 0x8888})
			if p.Len() != before {
				t.Error("strengthen/weaken of unknown pairs must not allocate")
			}

			p.Reset()
			if p.Len() != 0 {
				t.Error("reset must clear entries")
			}
			if p.Stats() != (MDPTStats{}) {
				t.Errorf("reset must clear stats: %+v", p.Stats())
			}
		})
	}
}

// TestMatchesBufferNotInvalidated is the regression test for the
// scratch-slice aliasing hazard: with the old scratch-backed API, the second
// MatchesForLoad call overwrote the backing array of the first call's result.
// With the append-into-caller-buffer API, results held by the caller must
// stay intact across any number of subsequent lookups on the same table.
func TestMatchesBufferNotInvalidated(t *testing.T) {
	for _, kind := range allTableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := NewPredictor(Config{Entries: 16, Predictor: PredictSync, Table: kind, Ways: 4})
			a := PairKey{LoadPC: 0x100, StorePC: 0x80}
			b := PairKey{LoadPC: 0x200, StorePC: 0x90}
			p.RecordMisspeculation(a, 1, 0xAAAA)
			p.RecordMisspeculation(b, 3, 0xBBBB)

			first := p.MatchesForLoad(a.LoadPC, nil)
			held := append([]Prediction(nil), first...)
			// Interleave lookups that used to clobber the scratch backing.
			p.MatchesForLoad(b.LoadPC, nil)
			p.MatchesForStore(b.StorePC, nil)
			p.MatchesForLoad(b.LoadPC, nil)
			if !reflect.DeepEqual(first, held) {
				t.Errorf("held result invalidated by later lookups:\nheld %+v\nnow  %+v", held, first)
			}
			if len(first) != 1 || first[0].Pair != a {
				t.Errorf("first lookup = %+v, want the %v entry", first, a)
			}

			// Appending into one shared buffer accumulates both results.
			buf := p.MatchesForLoad(a.LoadPC, nil)
			buf = p.MatchesForLoad(b.LoadPC, buf)
			if len(buf) != 2 {
				t.Errorf("accumulated buffer = %+v, want 2 predictions", buf)
			}
		})
	}
}

// TestPredictorCapacityPressure fills every organization far past capacity
// and checks the replacement machinery: Len never exceeds Capacity and the
// allocation/replacement counters account for the evictions.
func TestPredictorCapacityPressure(t *testing.T) {
	for _, kind := range allTableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := NewPredictor(Config{Entries: 8, Predictor: PredictSync, Table: kind, Ways: 2})
			const n = 64
			for i := 0; i < n; i++ {
				pair := PairKey{LoadPC: uint64(0x1000 + 16*i), StorePC: uint64(0x2000 + 16*i)}
				p.RecordMisspeculation(pair, 1, 0)
				if p.Len() > p.Capacity() {
					t.Fatalf("after %d inserts: Len %d exceeds Capacity %d", i+1, p.Len(), p.Capacity())
				}
			}
			st := p.Stats()
			if st.Allocations == 0 || st.Replacements == 0 {
				t.Errorf("pressure must allocate and replace: %+v", st)
			}
			if st.LiveEntries != p.Len() {
				t.Errorf("LiveEntries %d != Len %d", st.LiveEntries, p.Len())
			}
			if p.Len() > p.Capacity() {
				t.Errorf("Len %d exceeds Capacity %d", p.Len(), p.Capacity())
			}
		})
	}
}

// TestSetAssocLRUWithinSet pins the per-set LRU policy: with 2 ways, three
// pairs that index the same set evict the least recently touched way.
func TestSetAssocLRUWithinSet(t *testing.T) {
	m := NewSetAssocMDPT(Config{Entries: 8, Ways: 2, Predictor: PredictSync, Table: TableSetAssoc})
	if m.Sets() != 4 || m.Ways() != 2 {
		t.Fatalf("geometry = %d sets × %d ways, want 4×2", m.Sets(), m.Ways())
	}
	// Load PCs 16k all index set 0 ((pc>>2) % 4 == 0).
	pairs := []PairKey{
		{LoadPC: 0x10, StorePC: 0x200},
		{LoadPC: 0x20, StorePC: 0x204},
		{LoadPC: 0x30, StorePC: 0x208},
	}
	m.RecordMisspeculation(pairs[0], 1, 0)
	m.RecordMisspeculation(pairs[1], 1, 0)
	// Touch pair 0 so pair 1 is the set's LRU way.
	m.MatchesForLoad(pairs[0].LoadPC, nil)
	m.RecordMisspeculation(pairs[2], 1, 0)

	if _, ok := m.Lookup(pairs[1]); ok {
		t.Error("LRU way (pair 1) should have been evicted")
	}
	if _, ok := m.Lookup(pairs[0]); !ok {
		t.Error("recently used way (pair 0) should survive")
	}
	if _, ok := m.Lookup(pairs[2]); !ok {
		t.Error("newly allocated pair must be present")
	}
	st := m.Stats()
	if st.Allocations != 3 || st.Replacements != 1 {
		t.Errorf("stats = %+v, want 3 allocations / 1 replacement", st)
	}
	// The evicted entry must also be gone from the store-side index.
	if got := m.MatchesForStore(pairs[1].StorePC, nil); len(got) != 0 {
		t.Errorf("evicted entry still visible through the store index: %v", got)
	}
	if got := m.MatchesForStore(pairs[0].StorePC, nil); len(got) != 1 {
		t.Errorf("surviving entry missing from the store index: %v", got)
	}
}

// TestConstructorsImplyTheirOrganization: the exported constructors must
// honour cfg.Ways even when the caller leaves cfg.Table at its zero value
// (the full-assoc normalization would otherwise silently zero it).
func TestConstructorsImplyTheirOrganization(t *testing.T) {
	m := NewSetAssocMDPT(Config{Entries: 64, Ways: 1})
	if m.Ways() != 1 || m.Sets() != 64 {
		t.Errorf("geometry = %d sets × %d ways, want 64×1", m.Sets(), m.Ways())
	}
	if NewSetAssocMDPT(Config{Entries: 64}).Ways() != 4 {
		t.Error("unset ways must default to 4")
	}
	if got := NewStoreSetPredictor(Config{Entries: 64, Ways: 2}).Capacity(); got != 32 {
		t.Errorf("store-set pool = %d sets, want 64/2 = 32", got)
	}
}

// TestStoreSetStrengthensCountsOnlyKnownPairs aligns the Stats bookkeeping
// with the pair tables: a first mis-speculation is an allocation, not a
// strengthen; only a repeat of an already-known pair strengthens.
func TestStoreSetStrengthensCountsOnlyKnownPairs(t *testing.T) {
	p := NewStoreSetPredictor(Config{Entries: 16, Ways: 4})
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	p.RecordMisspeculation(pair, 1, 0)
	if st := p.Stats(); st.Allocations != 1 || st.Strengthens != 0 {
		t.Errorf("after first mis-speculation: %+v, want 1 allocation / 0 strengthens", st)
	}
	p.RecordMisspeculation(pair, 1, 0)
	if st := p.Stats(); st.Strengthens != 1 {
		t.Errorf("after repeat mis-speculation: %+v, want 1 strengthen", st)
	}
}

// TestSetAssocIsolatedSets checks that pairs in different sets do not evict
// each other and that load lookups only probe the indexed set.
func TestSetAssocIsolatedSets(t *testing.T) {
	m := NewSetAssocMDPT(Config{Entries: 8, Ways: 2, Predictor: PredictSync, Table: TableSetAssoc})
	// One pair per set: load PCs 4k index sets 0..3.
	for i := 0; i < 4; i++ {
		m.RecordMisspeculation(PairKey{LoadPC: uint64(4 * i), StorePC: uint64(0x100 + 4*i)}, 1, 0)
	}
	for i := 0; i < 4; i++ {
		pair := PairKey{LoadPC: uint64(4 * i), StorePC: uint64(0x100 + 4*i)}
		if _, ok := m.Lookup(pair); !ok {
			t.Errorf("pair %v lost despite spare capacity in its set", pair)
		}
		if got := m.MatchesForLoad(pair.LoadPC, nil); len(got) != 1 || got[0].Pair != pair {
			t.Errorf("MatchesForLoad(%#x) = %v", pair.LoadPC, got)
		}
	}
	if m.Stats().Replacements != 0 {
		t.Errorf("replacements = %d, want 0", m.Stats().Replacements)
	}
}

// TestStoreSetMergesRelatedDependences checks the defining behaviour of the
// store-set organization: dependences that share a load (or a store) collapse
// into one set, so lookups generalize across the set's members.
func TestStoreSetMergesRelatedDependences(t *testing.T) {
	p := NewStoreSetPredictor(Config{Entries: 16, Ways: 4, Predictor: PredictSync, Table: TableStoreSet})
	ld1, ld2 := uint64(0x400), uint64(0x500)
	st1, st2 := uint64(0x200), uint64(0x300)

	// ld1 mis-speculates against both stores: one set with two store members.
	p.RecordMisspeculation(PairKey{LoadPC: ld1, StorePC: st1}, 1, 0xA)
	p.RecordMisspeculation(PairKey{LoadPC: ld1, StorePC: st2}, 2, 0xB)
	got := p.MatchesForLoad(ld1, nil)
	if len(got) != 2 {
		t.Fatalf("load matches = %v, want predictions for both stores", got)
	}
	if got[0].Pair.StorePC != st1 || got[0].Dist != 1 || got[1].Pair.StorePC != st2 || got[1].Dist != 2 {
		t.Errorf("per-store state lost: %+v", got)
	}

	// ld2 mis-speculates against st1 in a fresh interaction: it must join the
	// existing set, so st1 now matches both loads.
	p.RecordMisspeculation(PairKey{LoadPC: ld2, StorePC: st1}, 3, 0xC)
	stMatches := p.MatchesForStore(st1, nil)
	if len(stMatches) != 2 {
		t.Fatalf("store matches = %v, want both member loads", stMatches)
	}
	for _, m := range stMatches {
		if m.Dist != 3 {
			t.Errorf("store member distance = %d, want the updated 3", m.Dist)
		}
	}
	if p.Len() != 1 {
		t.Errorf("live sets = %d, want 1 merged set", p.Len())
	}

	// The generalized pair (ld2, st2) is now predicted too -- the store-set
	// trade-off this organization exists to study.
	if _, ok := p.Lookup(PairKey{LoadPC: ld2, StorePC: st2}); !ok {
		t.Error("members of one set must predict against all its stores")
	}
}

// TestStoreSetMergeOfTwoSets merges two established sets through a bridging
// mis-speculation and checks the SSIT remapping.
func TestStoreSetMergeOfTwoSets(t *testing.T) {
	p := NewStoreSetPredictor(Config{Entries: 16, Ways: 4, Predictor: PredictSync, Table: TableStoreSet})
	p.RecordMisspeculation(PairKey{LoadPC: 0x100, StorePC: 0x10}, 1, 0)
	p.RecordMisspeculation(PairKey{LoadPC: 0x200, StorePC: 0x20}, 1, 0)
	if p.Len() != 2 {
		t.Fatalf("live sets = %d, want 2 before the merge", p.Len())
	}
	// Bridge: the first load against the second store.
	p.RecordMisspeculation(PairKey{LoadPC: 0x100, StorePC: 0x20}, 2, 0)
	if p.Len() != 1 {
		t.Errorf("live sets = %d, want 1 after the merge", p.Len())
	}
	// Every original member must be reachable in the merged set.
	for _, pair := range []PairKey{
		{LoadPC: 0x100, StorePC: 0x10},
		{LoadPC: 0x200, StorePC: 0x10},
		{LoadPC: 0x100, StorePC: 0x20},
		{LoadPC: 0x200, StorePC: 0x20},
	} {
		if _, ok := p.Lookup(pair); !ok {
			t.Errorf("pair %v not reachable after merge", pair)
		}
	}
}

// TestConfigValidation is the table-driven config-validation test: raw
// configurations that are inconsistent must be rejected by Validate, and
// withDefaults must clamp what it documents to clamp.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"zero value", Config{}, false},
		{"paper default", DefaultConfig(4), false},
		{"explicit counter bits", Config{CounterBits: 5, Threshold: 20}, false},
		{"threshold beyond counter", Config{CounterBits: 2, Threshold: 5}, true},
		{"threshold at saturation", Config{CounterBits: 2, Threshold: 3}, false},
		{"initial counter beyond saturation", Config{CounterBits: 3, InitialCounter: 9}, true},
		{"initial counter at saturation", Config{CounterBits: 3, InitialCounter: 7}, false},
		{"counter bits absurd", Config{CounterBits: 40}, true},
		{"invalid table kind", Config{Table: TableKind(9)}, true},
		{"set assoc defaults", Config{Table: TableSetAssoc}, false},
		{"ways beyond entries clamped", Config{Table: TableSetAssoc, Entries: 8, Ways: 100}, false},
		{"store set defaults", Config{Table: TableStoreSet}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr && err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tc.cfg)
			}
			if !tc.wantErr && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.cfg, err)
			}
		})
	}
}

// TestConfigDefaultsClamp pins the clamping contract of withDefaults: a
// constructed table can never be born stronger than its counter saturates
// at, whatever the raw configuration said.
func TestConfigDefaultsClamp(t *testing.T) {
	// CounterBits <= 0 takes the default width instead of a zero-range
	// counter (the old hazard: counterMax() == 0 with InitialCounter > 0).
	c := Config{CounterBits: 0, InitialCounter: 9}.withDefaults()
	if c.CounterBits != 3 {
		t.Errorf("CounterBits = %d, want default 3", c.CounterBits)
	}
	if c.InitialCounter > c.counterMax() {
		t.Errorf("InitialCounter %d exceeds saturation %d", c.InitialCounter, c.counterMax())
	}
	// A 1-bit counter clamps the default initial value of threshold+1.
	c = Config{CounterBits: 1, Threshold: 1}.withDefaults()
	if c.InitialCounter != 1 {
		t.Errorf("InitialCounter = %d, want clamped to 1", c.InitialCounter)
	}
	// Every constructed organization starts its entries at or below max.
	for _, kind := range allTableKinds() {
		p := NewPredictor(Config{Entries: 8, CounterBits: 1, Threshold: 1, InitialCounter: 9, Table: kind})
		pair := PairKey{LoadPC: 0x10, StorePC: 0x20}
		p.RecordMisspeculation(pair, 1, 0)
		pred, ok := p.Lookup(pair)
		if !ok {
			t.Fatalf("%v: pair missing", kind)
		}
		if pred.Counter > 1 {
			t.Errorf("%v: entry born at counter %d, saturation is 1", kind, pred.Counter)
		}
	}
	// Ways normalization: ignored (zeroed) for the fully associative table,
	// defaulted and clamped otherwise.
	if c := (Config{Table: TableFullAssoc, Ways: 8}).withDefaults(); c.Ways != 0 {
		t.Errorf("full-assoc Ways = %d, want normalized 0", c.Ways)
	}
	if c := (Config{Table: TableSetAssoc}).withDefaults(); c.Ways != 4 {
		t.Errorf("set-assoc default Ways = %d, want 4", c.Ways)
	}
	if c := (Config{Table: TableSetAssoc, Entries: 2, Ways: 64}).withDefaults(); c.Ways != 2 {
		t.Errorf("set-assoc Ways = %d, want clamped to Entries", c.Ways)
	}
}

// TestSystemAcrossOrganizations drives the full System protocol (learn, wait,
// signal, release) over every organization: the synchronization behaviour of
// the paper's working example must be organization-independent.
func TestSystemAcrossOrganizations(t *testing.T) {
	for _, kind := range allTableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s := NewSystem(Config{Entries: 16, SyncSlots: 4, Predictor: PredictSync, Table: kind, Ways: 4})
			if s.Predictor().Kind() != kind {
				t.Fatalf("system predictor kind = %v", s.Predictor().Kind())
			}
			rel := hookReleases(s)
			pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
			s.RecordMisspeculation(pair, 1, 0x1000)

			d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
			if !d.Predicted || !d.Wait {
				t.Fatalf("load must be predicted and wait: %+v", d)
			}
			matched := s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 21, TaskPC: 0x1000})
			if got := rel.take(); !matched || len(got) != 1 || got[0] != 11 {
				t.Fatalf("store matched=%v released %v, want release of load 11", matched, got)
			}
			if s.MDST().HasWaiter(11) {
				t.Error("no waiter must remain after the signal")
			}
		})
	}
}

// ExamplePredictor shows the append-into-buffer lookup contract shared by all
// organizations.
func ExamplePredictor() {
	p := NewPredictor(Config{Entries: 16, Predictor: PredictSync, Table: TableSetAssoc, Ways: 4})
	p.RecordMisspeculation(PairKey{LoadPC: 0x400, StorePC: 0x200}, 1, 0)

	var buf []Prediction
	buf = p.MatchesForLoad(0x400, buf[:0])
	fmt.Printf("%s: %d match, sync=%v\n", p.Kind(), len(buf), buf[0].Sync)
	// Output: setassoc: 1 match, sync=true
}
