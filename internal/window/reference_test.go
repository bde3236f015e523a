package window

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// refAnalyzer is the test-only reference for Analyze: a streaming analyzer
// that runs its own functional pass and finds each load's producing store
// with an address map of its own, so it shares nothing with the work item's
// producer resolution except the functional simulator.
type refAnalyzer struct {
	cfg     Config
	windows []*refPerWindow
	loads   uint64

	// lastStore maps a data address to the most recent store that wrote it.
	lastStore map[uint64]refStoreRecord
}

type refStoreRecord struct {
	seq uint64
	pc  uint64
}

// refPerWindow is the per-window-size accumulation state.
type refPerWindow struct {
	size     int
	misspecs uint64
	pairs    map[memdep.PairKey]uint64
	ddcs     []*memdep.DDC
}

func newRefAnalyzer(cfg Config) *refAnalyzer {
	cfg = cfg.withDefaults()
	a := &refAnalyzer{
		cfg:       cfg,
		lastStore: make(map[uint64]refStoreRecord),
	}
	sizes := append([]int(nil), cfg.WindowSizes...)
	sort.Ints(sizes)
	for _, ws := range sizes {
		pw := &refPerWindow{
			size:  ws,
			pairs: make(map[memdep.PairKey]uint64),
		}
		for _, ds := range cfg.DDCSizes {
			pw.ddcs = append(pw.ddcs, memdep.NewDDC(ds))
		}
		a.windows = append(a.windows, pw)
	}
	return a
}

// observe processes one committed dynamic instruction.
func (a *refAnalyzer) observe(d trace.DynInst) {
	switch {
	case d.IsStore():
		a.lastStore[d.Addr] = refStoreRecord{seq: d.Seq, pc: d.PC}
	case d.IsLoad():
		a.loads++
		st, ok := a.lastStore[d.Addr]
		if !ok {
			return
		}
		dist := d.Seq - st.seq
		pair := memdep.PairKey{LoadPC: d.PC, StorePC: st.pc}
		for _, pw := range a.windows {
			if dist < uint64(pw.size) {
				pw.misspecs++
				pw.pairs[pair]++
				for _, ddc := range pw.ddcs {
					ddc.Access(pair)
				}
			}
		}
	}
}

// results returns the accumulated statistics, one Result per window size in
// increasing order.
func (a *refAnalyzer) results() []Result {
	out := make([]Result, 0, len(a.windows))
	for _, pw := range a.windows {
		r := Result{
			WindowSize:       pw.size,
			Loads:            a.loads,
			Misspeculations:  pw.misspecs,
			StaticPairs:      len(pw.pairs),
			PairsForCoverage: pairsForCoverage(pw.pairs, pw.misspecs, Coverage),
			DDCMissRate:      make(map[int]float64, len(pw.ddcs)),
			PairCounts:       pw.pairs,
		}
		for _, ddc := range pw.ddcs {
			r.DDCMissRate[ddc.Capacity()] = ddc.MissRate() * 100
		}
		out = append(out, r)
	}
	return out
}

// refAnalyze runs the program under the functional simulator and returns the
// reference statistics for every configured window size.
func refAnalyze(p *program.Program, cfg Config, tc trace.Config) ([]Result, error) {
	a := newRefAnalyzer(cfg)
	_, err := trace.Run(p, tc, func(d trace.DynInst) bool {
		a.observe(d)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("window: analysis of %q failed: %w", p.Name, err)
	}
	return a.results(), nil
}

// checkWindowLaws asserts the relations every analysis of w under cfg obeys.
// Each law follows from Analyze's code:
//
//  1. Σ PairCounts = Misspeculations: a counted load increments its window's
//     misspecs and exactly one pair count.
//  2. StaticPairs = len(PairCounts), by construction.
//  3. PairsForCoverage ≤ StaticPairs: pairsForCoverage counts pairs.
//  4. Loads is the work item's Loads, and Misspeculations ≤ Loads: a load
//     has at most one producer and counts at most once per window.
//  5. Results come in increasing window size, and each pair's count is
//     non-decreasing in it: a distance below n is below every larger n.
//  6. The DDC miss rate is non-increasing in DDC size: every DDC of a window
//     sees the same access stream, and LRU is a stack algorithm, so a larger
//     cache holds a superset of a smaller one's pairs and never misses more.
//  7. Every field except DDCMissRate is the same under another DDC size
//     list: the DDCs only observe the counted loads.  Tables 3-5 share one
//     analysis on the strength of this law.
func checkWindowLaws(t *testing.T, w *multiscalar.WorkItem, cfg Config, res []Result) {
	t.Helper()
	if want := len(cfg.withDefaults().WindowSizes); len(res) != want {
		t.Fatalf("%d results for %d window sizes", len(res), want)
	}
	for i, r := range res {
		var sum uint64
		for _, c := range r.PairCounts {
			sum += c
		}
		if sum != r.Misspeculations {
			t.Errorf("window %d: pair counts sum to %d, misspeculations %d", r.WindowSize, sum, r.Misspeculations)
		}
		if r.StaticPairs != len(r.PairCounts) {
			t.Errorf("window %d: StaticPairs %d, %d pairs counted", r.WindowSize, r.StaticPairs, len(r.PairCounts))
		}
		if r.PairsForCoverage > r.StaticPairs {
			t.Errorf("window %d: %d pairs for coverage of %d", r.WindowSize, r.PairsForCoverage, r.StaticPairs)
		}
		if r.Loads != w.Loads || r.Misspeculations > r.Loads {
			t.Errorf("window %d: %d misspeculations over %d loads, item has %d loads",
				r.WindowSize, r.Misspeculations, r.Loads, w.Loads)
		}
		if i > 0 {
			prev := res[i-1]
			if r.WindowSize < prev.WindowSize {
				t.Errorf("window %d follows window %d", r.WindowSize, prev.WindowSize)
			}
			for pair, c := range prev.PairCounts { //lint:deterministic independent per-pair checks
				if r.PairCounts[pair] < c {
					t.Errorf("pair %v: %d at window %d, %d at window %d", pair, c, prev.WindowSize, r.PairCounts[pair], r.WindowSize)
				}
			}
		}
		sizes := slices.Sorted(maps.Keys(r.DDCMissRate))
		for j := 1; j < len(sizes); j++ {
			if small, large := r.DDCMissRate[sizes[j-1]], r.DDCMissRate[sizes[j]]; large > small {
				t.Errorf("window %d: DDC %d misses %.4f%%, DDC %d misses %.4f%%", r.WindowSize, sizes[j-1], small, sizes[j], large)
			}
		}
	}
	other := Analyze(w, Config{WindowSizes: cfg.WindowSizes, DDCSizes: []int{32}})
	for i := range res {
		a, b := res[i], other[i]
		a.DDCMissRate, b.DDCMissRate = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("window %d: the DDC sizes changed more than DDCMissRate:\n%+v\n%+v", a.WindowSize, a, b)
		}
	}
}

// TestAnalyzeMatchesReference holds Analyze to the reference analyzer at the
// Tables 3-5 sizes on every SPECint92 stand-in at the quick sweep's bound,
// and on xlisp at 50k instructions.
func TestAnalyzeMatchesReference(t *testing.T) {
	type run struct {
		bench string
		max   uint64
	}
	var runs []run
	for _, name := range workload.SPECint92Names() {
		runs = append(runs, run{name, 40_000})
	}
	runs = append(runs, run{"xlisp", 50_000})
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s/%d", r.bench, r.max), func(t *testing.T) {
			p := workload.MustGet(r.bench).Build(1)
			tc := trace.Config{MaxInstructions: r.max}
			w, err := multiscalar.Preprocess(p, tc)
			if err != nil {
				t.Fatal(err)
			}
			got := Analyze(w, Config{})
			want, err := refAnalyze(p, Config{}, tc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Analyze differs from the reference:\ngot  %+v\nwant %+v", got, want)
			}
			checkWindowLaws(t, w, Config{}, got)
		})
	}
}

// windowFuzzSeed is one committed input of FuzzAnalyzeAgainstReference.
type windowFuzzSeed struct {
	seed                         uint64
	ops, taskSize                int
	loadFrac, storeFrac, depFrac float64
	alias                        int
	loopCarried                  float64
	windows, ddcs                []byte
}

func (s windowFuzzSeed) args() []any {
	return []any{s.seed, s.ops, s.taskSize, s.loadFrac, s.storeFrac, s.depFrac, s.alias, s.loopCarried, s.windows, s.ddcs}
}

// windowFuzzSeeds returns the committed seed corpus.  The first three specs
// are FuzzCoresAgree's, and the size lists put window sizes on dependence
// distances the generator produces, so an off-by-one window compare
// diverges from the reference on every seed.
func windowFuzzSeeds() []windowFuzzSeed {
	return []windowFuzzSeed{
		// The generator's defaults at the Tables 3-5 sizes.
		{seed: 1, ops: 2000},
		// Every load dependent and loop-carried, few stores in long tasks.
		{seed: 3, ops: 2000, taskSize: 120, loadFrac: 0.3, storeFrac: 0.05, depFrac: 1.0, loopCarried: 1.0,
			windows: []byte{0, 1, 2, 3, 7, 15, 31, 63}, ddcs: []byte{0, 1, 3}},
		// Intermittent dependences over an alias set of four.
		{seed: 7, ops: 1500, taskSize: 12, depFrac: 0.8, alias: 4, loopCarried: 0.5,
			windows: []byte{255, 4, 9, 4, 1}, ddcs: []byte{1, 0, 7, 2}},
		// Unsorted window sizes 1 to 16, one per short dependence distance.
		{seed: 11, ops: 1000, taskSize: 24, loadFrac: 0.4, storeFrac: 0.3, depFrac: 0.9,
			windows: []byte{15, 3, 7, 0, 11, 5, 13, 1, 9, 2, 4, 6, 8, 10, 12, 14}, ddcs: []byte{0}},
	}
}

// sizesOf maps fuzzed bytes to positive sizes 1-256 (nil for no bytes, which
// selects the default sizes).
func sizesOf(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	sizes := make([]int, len(b))
	for i, v := range b {
		sizes[i] = 1 + int(v)
	}
	return sizes
}

// FuzzAnalyzeAgainstReference is the analysis's differential oracle: for any
// valid synthetic spec of at most 2,000 ops (decoded as FuzzCoresAgree
// decodes them) and any lists of up to 16 window and DDC sizes, Analyze over
// the preprocessed work item must deeply equal the reference analyzer over
// its own functional pass, and the result must obey checkWindowLaws.
func FuzzAnalyzeAgainstReference(f *testing.F) {
	for _, s := range windowFuzzSeeds() {
		f.Add(s.seed, s.ops, s.taskSize, s.loadFrac, s.storeFrac, s.depFrac, s.alias, s.loopCarried, s.windows, s.ddcs)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops, taskSize int, loadFrac, storeFrac, depFrac float64,
		alias int, loopCarried float64, windows, ddcs []byte) {
		spec := synth.Spec{
			Seed: seed, Ops: ops, TaskSize: taskSize,
			LoadFrac: loadFrac, StoreFrac: storeFrac, DepFrac: depFrac,
			AliasSetSize: alias, LoopCarried: loopCarried,
		}
		if ops < 1 || ops > 2000 || spec.Validate() != nil || len(windows) > 16 || len(ddcs) > 16 {
			t.Skip("invalid spec, or longer than the fuzz budget")
		}
		cfg := Config{WindowSizes: sizesOf(windows), DDCSizes: sizesOf(ddcs)}
		p := spec.Build(1)
		w, err := multiscalar.Preprocess(p, trace.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := Analyze(w, cfg)
		want, err := refAnalyze(p, cfg, trace.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v, windows %v, DDCs %v: Analyze differs from the reference:\ngot  %+v\nwant %+v",
				spec, cfg.WindowSizes, cfg.DDCSizes, got, want)
		}
		checkWindowLaws(t, w, cfg, got)
	})
}

// corpusFile encodes fuzz arguments in go test's corpus file format.
func corpusFile(args ...any) string {
	var b strings.Builder
	b.WriteString("go test fuzz v1\n")
	for _, a := range args {
		if v, ok := a.([]byte); ok {
			fmt.Fprintf(&b, "[]byte(%s)\n", strconv.Quote(string(v)))
			continue
		}
		fmt.Fprintf(&b, "%T(%v)\n", a, a)
	}
	return b.String()
}

// TestWindowFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzAnalyzeAgainstReference holds windowFuzzSeeds byte for
// byte (go test runs committed corpus entries even without -fuzz), and
// regenerates the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestWindowFuzzSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAnalyzeAgainstReference")
	update := os.Getenv("MEMDEP_UPDATE_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range windowFuzzSeeds() {
		body := corpusFile(seed.args()...)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if update {
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(name)
		if err != nil || string(got) != body {
			t.Fatalf("seed corpus entry %s is missing or stale (regenerate with MEMDEP_UPDATE_CORPUS=1): %v", name, err)
		}
	}
}
