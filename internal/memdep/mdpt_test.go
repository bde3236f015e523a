package memdep

import (
	"testing"
	"testing/quick"
)

func testConfig(pred PredictorKind) Config {
	return Config{Entries: 8, SyncSlots: 4, Predictor: pred}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Entries != 64 || c.CounterBits != 3 || c.Predictor != PredictSync {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if c.initialCounter() != Threshold+1 {
		t.Errorf("initial counter %d, want Threshold+1 = %d", c.initialCounter(), Threshold+1)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{CounterBits: 1}).Validate(); err == nil {
		t.Error("threshold exceeding counter range must be invalid")
	}
}

func TestPredictorKindString(t *testing.T) {
	if PredictSync.String() != "SYNC" || PredictESync.String() != "ESYNC" || PredictAlways.String() != "ALWAYS-SYNC" {
		t.Error("predictor names wrong")
	}
	if PredictorKind(42).String() == "" {
		t.Error("unknown predictor must produce a string")
	}
}

func TestMDPTAllocateAndLookup(t *testing.T) {
	m := NewMDPT(testConfig(PredictSync))
	pair := PairKey{LoadPC: 0x400, StorePC: 0x200}
	if _, ok := lookup(m, pair); ok {
		t.Fatal("empty table must not contain the pair")
	}
	m.RecordMisspeculation(pair, 1, 0x1000)
	e, ok := lookup(m, pair)
	if !ok {
		t.Fatal("pair must be present after a mis-speculation")
	}
	if e.Dist != 1 || e.StoreTaskPC != 0x1000 {
		t.Errorf("entry = %+v", e)
	}
	if !m.cfg.syncPredicted(e.Counter) {
		t.Error("freshly allocated entry must predict synchronization")
	}
	if n := liveEntries(m); n != 1 {
		t.Errorf("%d live entries, want 1", n)
	}
}

func TestMDPTCounterSaturates(t *testing.T) {
	m := NewMDPT(testConfig(PredictSync))
	pair := PairKey{LoadPC: 1, StorePC: 2}
	for i := 0; i < 20; i++ {
		m.RecordMisspeculation(pair, 1, 0)
	}
	e, _ := lookup(m, pair)
	if e.Counter != 7 {
		t.Errorf("counter = %d, want saturation at 7", e.Counter)
	}
	for i := 0; i < 20; i++ {
		m.Weaken(pair)
	}
	e, _ = lookup(m, pair)
	if e.Counter != 0 {
		t.Errorf("counter = %d, want saturation at 0", e.Counter)
	}
	if m.cfg.syncPredicted(e.Counter) {
		t.Error("fully weakened entry must not predict synchronization")
	}
}

func TestMDPTWeakenBelowThresholdStopsPrediction(t *testing.T) {
	cfg := testConfig(PredictSync)
	m := NewMDPT(cfg)
	pair := PairKey{LoadPC: 1, StorePC: 2}
	m.RecordMisspeculation(pair, 1, 0)
	// Initial counter is threshold+1 = 4; two weakens drop it to 2 (< 3).
	m.Weaken(pair)
	m.Weaken(pair)
	e, _ := lookup(m, pair)
	if m.cfg.syncPredicted(e.Counter) {
		t.Errorf("counter %d below threshold must not predict", e.Counter)
	}
	// One more mis-speculation brings it back up.
	m.RecordMisspeculation(pair, 1, 0)
	e, _ = lookup(m, pair)
	if !m.cfg.syncPredicted(e.Counter) {
		t.Error("mis-speculation must restore the prediction")
	}
}

func TestMDPTAlwaysPredictorIgnoresCounter(t *testing.T) {
	m := NewMDPT(testConfig(PredictAlways))
	pair := PairKey{LoadPC: 1, StorePC: 2}
	m.RecordMisspeculation(pair, 1, 0)
	for i := 0; i < 10; i++ {
		m.Weaken(pair)
	}
	e, _ := lookup(m, pair)
	if !m.cfg.syncPredicted(e.Counter) {
		t.Error("ALWAYS predictor must always predict for a valid entry")
	}
}

func TestMDPTLRUReplacement(t *testing.T) {
	cfg := testConfig(PredictSync)
	cfg.Entries = 4
	m := NewMDPT(cfg)
	pairs := make([]PairKey, 5)
	for i := range pairs {
		pairs[i] = PairKey{LoadPC: uint64(0x100 + 4*i), StorePC: uint64(0x200 + 4*i)}
	}
	for _, p := range pairs[:4] {
		m.RecordMisspeculation(p, 1, 0)
	}
	// Touch pair 0 so pair 1 is the LRU victim.
	m.MatchesForLoad(pairs[0].LoadPC, nil)
	m.RecordMisspeculation(pairs[4], 1, 0)
	if _, ok := lookup(m, pairs[1]); ok {
		t.Error("LRU entry (pair 1) should have been replaced")
	}
	if _, ok := lookup(m, pairs[0]); !ok {
		t.Error("recently used entry (pair 0) should survive")
	}
	if n := liveEntries(m); n != 4 {
		t.Errorf("%d live entries, want the table's 4", n)
	}
}

func TestMDPTMultipleDependencesPerLoad(t *testing.T) {
	m := NewMDPT(testConfig(PredictSync))
	ld := uint64(0x500)
	m.RecordMisspeculation(PairKey{LoadPC: ld, StorePC: 0x100}, 1, 0)
	m.RecordMisspeculation(PairKey{LoadPC: ld, StorePC: 0x104}, 2, 0)
	matches := m.MatchesForLoad(ld, nil)
	if len(matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(matches))
	}
	stores := map[uint64]bool{}
	for _, p := range matches {
		stores[p.Pair.StorePC] = true
	}
	if !stores[0x100] || !stores[0x104] {
		t.Error("both static dependences must match")
	}
	if got := m.MatchesForStore(0x104, nil); len(got) != 1 {
		t.Errorf("store matches = %d, want 1", len(got))
	}
}

func TestMDPTStrengthenWeakenUnknownPairIgnored(t *testing.T) {
	m := NewMDPT(testConfig(PredictSync))
	m.Strengthen(PairKey{LoadPC: 9, StorePC: 9})
	m.Weaken(PairKey{LoadPC: 9, StorePC: 9})
	if n := liveEntries(m); n != 0 {
		t.Errorf("strengthen/weaken must not allocate: %d live entries", n)
	}
}

func TestMDPTDistUpdatedOnRepeatMisspeculation(t *testing.T) {
	m := NewMDPT(testConfig(PredictSync))
	pair := PairKey{LoadPC: 1, StorePC: 2}
	m.RecordMisspeculation(pair, 1, 0xa)
	m.RecordMisspeculation(pair, 3, 0xb)
	e, _ := lookup(m, pair)
	if e.Dist != 3 || e.StoreTaskPC != 0xb {
		t.Errorf("entry not updated: %+v", e)
	}
}

func TestMDPTReset(t *testing.T) {
	m := NewMDPT(testConfig(PredictSync))
	m.RecordMisspeculation(PairKey{LoadPC: 1, StorePC: 2}, 1, 0)
	m.Reset()
	if n := liveEntries(m); n != 0 {
		t.Errorf("reset left %d live entries", n)
	}
	if len(m.pairIdx) != 0 || len(m.loadIdx[1]) != 0 || len(m.storeIdx[2]) != 0 {
		t.Error("reset must empty the indexes")
	}
}

// Property: the number of valid entries never exceeds the capacity, and a
// pair that was just recorded is always found.
func TestMDPTCapacityInvariant(t *testing.T) {
	f := func(events []uint16) bool {
		cfg := testConfig(PredictSync)
		cfg.Entries = 16
		m := NewMDPT(cfg)
		for _, ev := range events {
			pair := PairKey{LoadPC: uint64(ev % 97), StorePC: uint64(ev % 53)}
			m.RecordMisspeculation(pair, uint64(ev%8), uint64(ev))
			if liveEntries(m) > 16 {
				return false
			}
			if _, ok := lookup(m, pair); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: counters always stay within [0, 2^bits-1].
func TestMDPTCounterBounds(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewMDPT(testConfig(PredictSync))
		pair := PairKey{LoadPC: 1, StorePC: 2}
		m.RecordMisspeculation(pair, 1, 0)
		for _, strengthen := range ops {
			if strengthen {
				m.Strengthen(pair)
			} else {
				m.Weaken(pair)
			}
			e, ok := lookup(m, pair)
			if !ok || e.Counter < 0 || e.Counter > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
