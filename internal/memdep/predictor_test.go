package memdep

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
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
		if got := tableKind(p); got != k {
			t.Errorf("NewPredictor(%v) built a %v table", k, got)
		}
	}
	if _, ok := NewPredictor(Config{}).(*MDPT); !ok {
		t.Error("default organization must be the fully associative MDPT")
	}
	if m, ok := NewPredictor(Config{Table: TableSetAssoc}).(*MDPT); !ok || m.sets != 16 || m.ways != 4 {
		t.Error("TableSetAssoc must build an MDPT of 16 sets × 4 ways")
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

			if _, ok := lookup(p, pair); ok {
				t.Fatal("empty table must not contain the pair")
			}
			if got := p.MatchesForLoad(pair.LoadPC, nil); len(got) != 0 {
				t.Fatalf("empty table matched: %v", got)
			}

			p.RecordMisspeculation(pair, 2, 0x1000)
			e, ok := lookup(p, pair)
			if !ok {
				t.Fatal("pair must be present after a mis-speculation")
			}
			if e.Dist != 2 || e.StoreTaskPC != 0x1000 {
				t.Errorf("entry = %+v", e)
			}

			ld := p.MatchesForLoad(pair.LoadPC, nil)
			if len(ld) != 1 || ld[0].Pair != pair {
				t.Errorf("load matches = %v", ld)
			}
			if !ld[0].Sync {
				t.Error("freshly allocated entry must predict synchronization")
			}
			st := p.MatchesForStore(pair.StorePC, nil)
			if len(st) != 1 || st[0].Pair != pair || st[0].Dist != 2 {
				t.Errorf("store matches = %v", st)
			}

			// Counters saturate in [0, 7] and cross the threshold both ways.
			for i := 0; i < 20; i++ {
				p.Strengthen(pair)
			}
			if e, _ = lookup(p, pair); e.Counter != 7 {
				t.Errorf("counter = %d, want saturation at 7", e.Counter)
			}
			for i := 0; i < 20; i++ {
				p.Weaken(pair)
			}
			if e, _ = lookup(p, pair); e.Counter != 0 {
				t.Errorf("fully weakened entry = %+v, want counter 0", e)
			}
			if ld := p.MatchesForLoad(pair.LoadPC, nil); len(ld) != 1 || ld[0].Sync {
				t.Errorf("fully weakened load matches = %+v, want one without sync", ld)
			}

			// Strengthen/Weaken of unknown pairs must not allocate.
			before := tableState(p)
			p.Strengthen(PairKey{LoadPC: 0x9999, StorePC: 0x8888})
			p.Weaken(PairKey{LoadPC: 0x9999, StorePC: 0x8888})
			if after := tableState(p); !maps.Equal(after, before) {
				t.Errorf("strengthen/weaken of unknown pairs changed the table: %+v, was %+v", after, before)
			}

			p.Reset()
			if n := liveEntries(p); n != 0 {
				t.Errorf("reset left %d live entries", n)
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
// and checks the replacement machinery: the live entries never exceed the
// capacity, the first pair is evicted and the last one is held.
func TestPredictorCapacityPressure(t *testing.T) {
	for _, kind := range allTableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := NewPredictor(Config{Entries: 8, Predictor: PredictSync, Table: kind, Ways: 2})
			const n = 64
			pair := func(i int) PairKey {
				return PairKey{LoadPC: uint64(0x1000 + 16*i), StorePC: uint64(0x2000 + 16*i)}
			}
			for i := 0; i < n; i++ {
				p.RecordMisspeculation(pair(i), 1, 0)
				if live, limit := liveEntries(p), capacity(p); live > limit {
					t.Fatalf("after %d inserts: %d live entries exceed the capacity of %d", i+1, live, limit)
				}
			}
			if _, ok := lookup(p, pair(0)); ok {
				t.Errorf("pressure must evict the first pair %v", pair(0))
			}
			if _, ok := lookup(p, pair(n-1)); !ok {
				t.Errorf("the last pair %v must be held", pair(n-1))
			}
		})
	}
}

// TestSetAssocLRUWithinSet pins the per-set LRU policy: with 2 ways, three
// pairs that index the same set evict the least recently touched way.
func TestSetAssocLRUWithinSet(t *testing.T) {
	m := NewMDPT(Config{Entries: 8, Ways: 2, Predictor: PredictSync, Table: TableSetAssoc})
	if m.sets != 4 || m.ways != 2 {
		t.Fatalf("geometry = %d sets × %d ways, want 4×2", m.sets, m.ways)
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

	if _, ok := lookup(m, pairs[1]); ok {
		t.Error("LRU way (pair 1) should have been evicted")
	}
	if _, ok := lookup(m, pairs[0]); !ok {
		t.Error("recently used way (pair 0) should survive")
	}
	if _, ok := lookup(m, pairs[2]); !ok {
		t.Error("newly allocated pair must be present")
	}
	if n := liveEntries(m); n != 2 {
		t.Errorf("%d live entries, want the set's 2 ways", n)
	}
	// The evicted entry must also be gone from the store-side index.
	if got := m.MatchesForStore(pairs[1].StorePC, nil); len(got) != 0 {
		t.Errorf("evicted entry still visible through the store index: %v", got)
	}
	if got := m.MatchesForStore(pairs[0].StorePC, nil); len(got) != 1 {
		t.Errorf("surviving entry missing from the store index: %v", got)
	}
}

// TestConstructorsImplyTheirOrganization pins the geometry each constructor
// builds: NewMDPT honours cfg.Table (the fully associative table is one set
// and ignores cfg.Ways), and NewStoreSetPredictor implies its organization,
// so it honours cfg.Ways even when cfg.Table is left at its zero value.
func TestConstructorsImplyTheirOrganization(t *testing.T) {
	for _, tc := range []struct {
		cfg        Config
		sets, ways int
	}{
		{Config{Entries: 64, Ways: 1, Table: TableSetAssoc}, 64, 1},
		{Config{Entries: 64, Table: TableSetAssoc}, 16, 4},
		{Config{Entries: 10, Ways: 4, Table: TableSetAssoc}, 2, 4},
		{Config{Entries: 64, Ways: 2}, 1, 64},
		{Config{Entries: 64, Table: TableStoreSet}, 1, 64},
	} {
		m := NewMDPT(tc.cfg)
		if m.sets != tc.sets || m.ways != tc.ways || len(m.entries) != tc.sets*tc.ways {
			t.Errorf("NewMDPT(%+v): geometry = %d sets × %d ways, capacity %d; want %d×%d",
				tc.cfg, m.sets, m.ways, len(m.entries), tc.sets, tc.ways)
		}
	}
	if got := len(NewStoreSetPredictor(Config{Entries: 64, Ways: 2}).sets); got != 32 {
		t.Errorf("store-set pool = %d sets, want 64/2 = 32", got)
	}
}

// TestStoreSetStrengthensCountsOnlyKnownPairs aligns the store-set counter
// with the pair tables: a first mis-speculation allocates at the initial
// counter, and only a repeat of an already-known pair strengthens it.
func TestStoreSetStrengthensCountsOnlyKnownPairs(t *testing.T) {
	p := NewStoreSetPredictor(Config{Entries: 16, Ways: 4})
	pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
	p.RecordMisspeculation(pair, 1, 0)
	if e, _ := lookup(p, pair); e.Counter != Threshold+1 {
		t.Errorf("after first mis-speculation: counter %d, want the initial %d", e.Counter, Threshold+1)
	}
	p.RecordMisspeculation(pair, 1, 0)
	if e, _ := lookup(p, pair); e.Counter != Threshold+2 {
		t.Errorf("after repeat mis-speculation: counter %d, want %d", e.Counter, Threshold+2)
	}
}

// TestSetAssocIsolatedSets checks that pairs in different sets do not evict
// each other and that each load matches only its own pair.
func TestSetAssocIsolatedSets(t *testing.T) {
	m := NewMDPT(Config{Entries: 8, Ways: 2, Predictor: PredictSync, Table: TableSetAssoc})
	// One pair per set: load PCs 4k index sets 0..3.
	for i := 0; i < 4; i++ {
		m.RecordMisspeculation(PairKey{LoadPC: uint64(4 * i), StorePC: uint64(0x100 + 4*i)}, 1, 0)
	}
	for i := 0; i < 4; i++ {
		pair := PairKey{LoadPC: uint64(4 * i), StorePC: uint64(0x100 + 4*i)}
		if _, ok := lookup(m, pair); !ok {
			t.Errorf("pair %v lost despite spare capacity in its set", pair)
		}
		if got := m.MatchesForLoad(pair.LoadPC, nil); len(got) != 1 || got[0].Pair != pair {
			t.Errorf("MatchesForLoad(%#x) = %v", pair.LoadPC, got)
		}
	}
	if n := liveEntries(m); n != 4 {
		t.Errorf("%d live entries, want all 4 pairs", n)
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
	if n := liveEntries(p); n != 1 {
		t.Errorf("live sets = %d, want 1 merged set", n)
	}

	// The generalized pair (ld2, st2) is now predicted too -- the store-set
	// trade-off this organization exists to study.
	if _, ok := lookup(p, PairKey{LoadPC: ld2, StorePC: st2}); !ok {
		t.Error("members of one set must predict against all its stores")
	}
}

// TestStoreSetMergeOfTwoSets merges two established sets through a bridging
// mis-speculation and checks the SSIT remapping.
func TestStoreSetMergeOfTwoSets(t *testing.T) {
	p := NewStoreSetPredictor(Config{Entries: 16, Ways: 4, Predictor: PredictSync, Table: TableStoreSet})
	p.RecordMisspeculation(PairKey{LoadPC: 0x100, StorePC: 0x10}, 1, 0)
	p.RecordMisspeculation(PairKey{LoadPC: 0x200, StorePC: 0x20}, 1, 0)
	if n := liveEntries(p); n != 2 {
		t.Fatalf("live sets = %d, want 2 before the merge", n)
	}
	// Bridge: the first load against the second store.
	p.RecordMisspeculation(PairKey{LoadPC: 0x100, StorePC: 0x20}, 2, 0)
	if n := liveEntries(p); n != 1 {
		t.Errorf("live sets = %d, want 1 after the merge", n)
	}
	// Every original member must be reachable in the merged set.
	for _, pair := range []PairKey{
		{LoadPC: 0x100, StorePC: 0x10},
		{LoadPC: 0x200, StorePC: 0x10},
		{LoadPC: 0x100, StorePC: 0x20},
		{LoadPC: 0x200, StorePC: 0x20},
	} {
		if _, ok := lookup(p, pair); !ok {
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
		{"paper default", Config{SyncSlots: 4}, false},
		{"explicit counter bits", Config{CounterBits: 5}, false},
		{"threshold beyond counter", Config{CounterBits: 1}, true},
		{"threshold at saturation", Config{CounterBits: 2}, false},
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
	// counter (the old hazard: counterMax() == 0 with a positive initial
	// counter).
	c := Config{CounterBits: 0}.withDefaults()
	if c.CounterBits != 3 {
		t.Errorf("CounterBits = %d, want default 3", c.CounterBits)
	}
	if c.initialCounter() != Threshold+1 {
		t.Errorf("initial counter = %d, want Threshold+1 = %d", c.initialCounter(), Threshold+1)
	}
	// A 2-bit counter saturates at Threshold, which clamps the initial value
	// of Threshold+1 (the 2-bit rows of the sensitivity-predictor sweep).
	c = Config{CounterBits: 2}.withDefaults()
	if c.initialCounter() != 3 {
		t.Errorf("initial counter = %d, want clamped to 3", c.initialCounter())
	}
	// Every constructed organization starts its entries at or below max.
	for _, kind := range allTableKinds() {
		p := NewPredictor(Config{Entries: 8, CounterBits: 2, Table: kind})
		pair := PairKey{LoadPC: 0x10, StorePC: 0x20}
		p.RecordMisspeculation(pair, 1, 0)
		e, ok := lookup(p, pair)
		if !ok {
			t.Fatalf("%v: pair missing", kind)
		}
		if e.Counter > 3 {
			t.Errorf("%v: entry born at counter %d, saturation is 3", kind, e.Counter)
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
			s := newSizedSystem(Config{Entries: 16, SyncSlots: 4, Predictor: PredictSync, Table: kind, Ways: 4})
			if got := tableKind(s.pred); got != kind {
				t.Fatalf("system predictor kind = %v", got)
			}
			rel := hookReleases(s)
			pair := PairKey{LoadPC: 0x100, StorePC: 0x80}
			s.RecordMisspeculation(pair, 1, 0x1000)

			d := s.LoadIssue(LoadQuery{PC: 0x100, Instance: 7, LDID: 11})
			if !d.Predicted || !d.Wait {
				t.Fatalf("load must be predicted and wait: %+v", d)
			}
			matched := s.StoreIssue(StoreQuery{PC: 0x80, Instance: 6, STID: 21})
			if got := rel.take(); !matched || len(got) != 1 || got[0] != 11 {
				t.Fatalf("store matched=%v released %v, want release of load 11", matched, got)
			}
			if s.mdst.HasWaiter(11) {
				t.Error("no waiter must remain after the signal")
			}
		})
	}
}

// ExamplePredictor shows the append-into-buffer lookup contract shared by all
// organizations.
func ExamplePredictor() {
	cfg := Config{Entries: 16, Predictor: PredictSync, Table: TableSetAssoc, Ways: 4}
	p := NewPredictor(cfg)
	p.RecordMisspeculation(PairKey{LoadPC: 0x400, StorePC: 0x200}, 1, 0)

	var buf []Prediction
	buf = p.MatchesForLoad(0x400, buf[:0])
	fmt.Printf("%s: %d match, sync=%v\n", cfg.Table, len(buf), buf[0].Sync)
	// Output: setassoc: 1 match, sync=true
}

// TestPCFiltersCountTheirKeys drives every organization through the
// reset-equivalence workload and requires each lookup filter to hold exactly
// the count of the table's keys per bucket: a PC counted too low would lose
// its matches, one counted too high only costs a map lookup.
func TestPCFiltersCountTheirKeys(t *testing.T) {
	for _, kind := range []TableKind{TableFullAssoc, TableSetAssoc, TableStoreSet} {
		p := NewPredictor(Config{Entries: 16, Ways: 4, Table: kind})
		drivePredictor(p)
		var loads, stores []uint64
		var loadFilter, storeFilter pcFilter
		switch t := p.(type) {
		case *MDPT:
			for _, e := range t.entries {
				if e.valid {
					loads, stores = append(loads, e.loadPC), append(stores, e.storePC)
				}
			}
			loadFilter, storeFilter = t.loadFilter, t.storeFilter
		case *StoreSetPredictor:
			loads = slices.Collect(maps.Keys(t.loadSSIT))
			stores = slices.Collect(maps.Keys(t.storeSSIT))
			loadFilter, storeFilter = t.loadFilter, t.storeFilter
		}
		for _, c := range []struct {
			name   string
			pcs    []uint64
			filter pcFilter
		}{{"load", loads, loadFilter}, {"store", stores, storeFilter}} {
			want := make(pcFilter, len(c.filter))
			for _, pc := range c.pcs {
				want.add(pc)
			}
			if len(c.pcs) == 0 || !slices.Equal(c.filter, want) {
				t.Errorf("%v: %s filter holds %v, its %d keys give %v", kind, c.name, c.filter, len(c.pcs), want)
			}
		}
	}
}
