package window

import (
	"testing"
	"testing/quick"

	"memdep/internal/isa"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// op kinds of a straight-line test program.
const (
	opALU = iota
	opStore
	opLoad
)

// memOp is one instruction of a straight-line test program: a store to or a
// load from the word at addr, or an ALU filler.
type memOp struct {
	kind int
	addr uint64
}

func st(addr uint64) memOp { return memOp{opStore, addr} }
func ld(addr uint64) memOp { return memOp{opLoad, addr} }
func alu() memOp           { return memOp{kind: opALU} }

// straightLine assembles ops into a program, one instruction each, and
// preprocesses it.  Op i therefore commits at position i with PC 4i, and
// every memory operand is an absolute address.  A closing ALU filler keeps
// the committed stream non-empty when ops is.
func straightLine(t testing.TB, ops ...memOp) *multiscalar.WorkItem {
	t.Helper()
	b := program.NewBuilder("straight-line")
	for _, op := range ops {
		switch op.kind {
		case opStore:
			b.Store(isa.Zero, isa.Zero, int64(op.addr))
		case opLoad:
			b.Load(isa.RV, isa.Zero, int64(op.addr))
		default:
			b.Add(isa.RV, isa.RV, isa.RV)
		}
	}
	b.Add(isa.RV, isa.RV, isa.RV)
	b.Halt()
	w, err := multiscalar.Preprocess(b.MustBuild(), trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pc is the PC of op i of a straight-line program.
func pc(i int) uint64 { return uint64(i) * isa.InstrBytes }

func TestAnalyzerCountsDependenceWithinWindow(t *testing.T) {
	// store to A at position 0; load from A at position 5.
	w := straightLine(t, st(0xA0), alu(), alu(), alu(), alu(), ld(0xA0))
	res := Analyze(w, Config{WindowSizes: []int{4, 16}, DDCSizes: []int{32}})
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	// Distance is 5: outside a window of 4, inside a window of 16.
	if res[0].WindowSize != 4 || res[0].Misspeculations != 0 {
		t.Errorf("window 4: %+v", res[0])
	}
	if res[1].WindowSize != 16 || res[1].Misspeculations != 1 {
		t.Errorf("window 16: %+v", res[1])
	}
	if res[1].StaticPairs != 1 || res[1].PairsForCoverage != 1 {
		t.Errorf("window 16 pair stats: %+v", res[1])
	}
	if res[1].Loads != 1 {
		t.Errorf("loads = %d, want 1", res[1].Loads)
	}
}

func TestAnalyzerUsesMostRecentStore(t *testing.T) {
	w := straightLine(t,
		st(0xA0), // old store
		st(0xA0), // most recent store to A
		ld(0xA0))
	res := Analyze(w, Config{WindowSizes: []int{64}, DDCSizes: []int{32}})[0]
	if res.Misspeculations != 1 {
		t.Fatalf("misspeculations = %d, want 1", res.Misspeculations)
	}
	pair := memdep.PairKey{LoadPC: pc(2), StorePC: pc(1)}
	if res.PairCounts[pair] != 1 {
		t.Errorf("dependence must be attributed to the most recent store: %v", res.PairCounts)
	}
}

func TestAnalyzerLoadWithNoPriorStore(t *testing.T) {
	res := Analyze(straightLine(t, ld(0xA0)), Config{WindowSizes: []int{64}})[0]
	if res.Misspeculations != 0 || res.Loads != 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestAnalyzerDifferentAddressesIndependent(t *testing.T) {
	w := straightLine(t, st(0xA0), ld(0xB0)) // different address
	res := Analyze(w, Config{WindowSizes: []int{64}})[0]
	if res.Misspeculations != 0 {
		t.Errorf("load from unrelated address must not be a dependence: %+v", res)
	}
}

func TestMisspecRate(t *testing.T) {
	r := Result{Loads: 200, Misspeculations: 50}
	if got := r.MisspecRate(); got != 0.25 {
		t.Errorf("rate = %v, want 0.25", got)
	}
	if (Result{}).MisspecRate() != 0 {
		t.Error("zero loads must give rate 0")
	}
}

func TestPairsForCoverage(t *testing.T) {
	pairs := map[memdep.PairKey]uint64{
		{LoadPC: 1}: 900,
		{LoadPC: 2}: 90,
		{LoadPC: 3}: 9,
		{LoadPC: 4}: 1,
	}
	// 99.9% of 1000 = 999: needs the top three pairs (900+90+9 = 999).
	if got := pairsForCoverage(pairs, 1000, 0.999); got != 3 {
		t.Errorf("pairsForCoverage = %d, want 3", got)
	}
	// 50% needs only the top pair.
	if got := pairsForCoverage(pairs, 1000, 0.5); got != 1 {
		t.Errorf("pairsForCoverage(0.5) = %d, want 1", got)
	}
	if got := pairsForCoverage(nil, 0, 0.999); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	res := Analyze(straightLine(t, alu()), Config{})
	if len(res) != len(DefaultWindowSizes()) {
		t.Fatalf("results = %d, want %d", len(res), len(DefaultWindowSizes()))
	}
	for i, r := range res {
		if r.WindowSize != DefaultWindowSizes()[i] {
			t.Errorf("window %d = %d", i, r.WindowSize)
		}
		if len(r.DDCMissRate) != len(DefaultDDCSizes()) {
			t.Errorf("DDC sizes = %d", len(r.DDCMissRate))
		}
	}
}

// quickOp is one generated instruction of the property tests below.
type quickOp struct {
	Store bool
	Addr  uint8
}

// quickProgram turns generated ops into a straight-line program over 16
// words, so loads meet stores to their address often.
func quickProgram(t *testing.T, ops []quickOp) *multiscalar.WorkItem {
	t.Helper()
	mem := make([]memOp, len(ops))
	for i, op := range ops {
		mem[i] = ld(uint64(op.Addr%16) * 8)
		if op.Store {
			mem[i].kind = opStore
		}
	}
	return straightLine(t, mem...)
}

// Property: mis-speculation counts are monotonically non-decreasing in the
// window size (a dependence visible in a small window is visible in every
// larger window).
func TestMisspecsMonotoneInWindowSize(t *testing.T) {
	f := func(ops []quickOp) bool {
		res := Analyze(quickProgram(t, ops), Config{WindowSizes: []int{4, 16, 64, 256}, DDCSizes: []int{16}})
		for i := 1; i < len(res); i++ {
			if res[i].Misspeculations < res[i-1].Misspeculations {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the analysis agrees with a brute-force reference that scans the
// previous n-1 instructions for each load.
func TestAnalyzerMatchesBruteForce(t *testing.T) {
	f := func(ops []quickOp) bool {
		const ws = 8
		res := Analyze(quickProgram(t, ops), Config{WindowSizes: []int{ws}, DDCSizes: []int{16}})
		// Brute force: for each load, find the most recent prior store to the
		// same address; count a mis-speculation if it is within ws.
		var want uint64
		for i, op := range ops {
			if op.Store {
				continue
			}
			for j := i - 1; j >= 0; j-- {
				if ops[j].Store && ops[j].Addr%16 == op.Addr%16 {
					if i-j < ws {
						want++
					}
					break
				}
			}
		}
		return res[0].Misspeculations == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeWorkloadShapes checks the paper's qualitative claims on a real
// workload: mis-speculations grow sharply with window size, few static pairs
// dominate, and moderate DDCs capture most of them.
func TestAnalyzeWorkloadShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping workload analysis in -short mode")
	}
	w, err := multiscalar.Preprocess(workload.MustGet("compress").Build(1), trace.Config{MaxInstructions: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	results := Analyze(w, Config{
		WindowSizes: []int{8, 32, 512},
		DDCSizes:    []int{32, 512},
	})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	w8, w32, w512 := results[0], results[1], results[2]
	if w32.Misspeculations <= w8.Misspeculations {
		t.Errorf("mis-speculations must grow with window size: ws8=%d ws32=%d",
			w8.Misspeculations, w32.Misspeculations)
	}
	if w512.Misspeculations < w32.Misspeculations {
		t.Errorf("mis-speculations must not shrink: ws32=%d ws512=%d",
			w32.Misspeculations, w512.Misspeculations)
	}
	if w512.Misspeculations == 0 {
		t.Fatal("expected mis-speculations for compress")
	}
	// Few static pairs cover 99.9% of mis-speculations.
	if w512.PairsForCoverage > 200 {
		t.Errorf("99.9%% coverage needs %d pairs, expected a small number", w512.PairsForCoverage)
	}
	// A 512-entry DDC captures (nearly) all of them.
	if w512.DDCMissRate[512] > 10 {
		t.Errorf("DDC-512 miss rate %.2f%%, expected < 10%%", w512.DDCMissRate[512])
	}
	// Larger DDCs never do worse.
	if w512.DDCMissRate[512] > w512.DDCMissRate[32] {
		t.Errorf("DDC miss rate must not increase with capacity: 32=%v 512=%v",
			w512.DDCMissRate[32], w512.DDCMissRate[512])
	}
}

// TestAnalyzeProgramError checks that a program which never halts is
// analysed up to its instruction bound: the bound ends the functional pass
// of the preprocess, not with an error.
func TestAnalyzeProgramError(t *testing.T) {
	// A program whose only instruction jumps to itself never halts; bound it.
	b := program.NewBuilder("spin")
	b.Label("top")
	b.Jump("top")
	w, err := multiscalar.Preprocess(b.MustBuild(), trace.Config{MaxInstructions: 1000})
	if err != nil {
		t.Fatalf("bounded analysis must succeed: %v", err)
	}
	res := Analyze(w, Config{})
	if res[0].Loads != 0 {
		t.Error("spin program has no loads")
	}
}
