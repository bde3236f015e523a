package multiscalar

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"memdep/internal/memdep"
	"memdep/internal/policy"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// workItemFuzzSeeds returns the committed seed corpus: real encodings of one
// synthetic and one paper workload, truncations of them and a trailing byte.
// The streams are bounded to 64 instructions: small seeds keep the fuzzer
// mutating rather than minimizing.
func workItemFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	encode := func(w *WorkItem, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return AppendWorkItem(nil, w)
	}
	syn := encode(Preprocess(synth.Spec{Seed: 3, Ops: 400, Body: 64}.Build(1), trace.Config{MaxInstructions: 64}))
	paper := encode(Preprocess(workload.MustGet("compress").Build(1), trace.Config{MaxInstructions: 64}))
	return [][]byte{
		syn,
		paper,
		syn[:len(syn)/2],               // truncated mid-stream
		paper[:len(paper)-1],           // missing the last byte
		paper[:8],                      // header only
		{},                             // empty input
		append(slices.Clone(paper), 0), // a trailing byte
	}
}

// FuzzDecodeWorkItem fuzzes the work-item decoder with the contract the
// store relies on: DecodeWorkItem never panics, any input it accepts
// re-encodes byte-identically, and an accepted item simulates without
// panicking -- the decoder's validation is what keeps the timing core's
// indices in bounds.
func FuzzDecodeWorkItem(f *testing.F) {
	for _, seed := range workItemFuzzSeeds(f) {
		f.Add(seed)
	}
	cfg := DefaultConfig(4, policy.ESync)
	cfg.MaxCycles = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWorkItem(data)
		if err != nil {
			return // a miss; the store recomputes
		}
		if got := AppendWorkItem(nil, w); !bytes.Equal(got, data) {
			t.Fatalf("accepted encoding is not canonical:\ninput    %x\nreencode %x", data, got)
		}
		_, _ = SimulateContext(context.Background(), w, cfg) // errors (cycle limit, wedge) are fine; panics are not
	})
}

// FuzzCoresAgree is the differential oracle of the event-driven core (after
// McKeeman, "Differential Testing for Software", 1998): for any valid
// synthetic spec of at most 2,000 ops, any stage count from 1 to 16, any
// policy and either predictor ablation or none, the event-driven core and
// the stepped reference loop must produce deeply equal Results.  A wrong
// jump target -- a skipped cycle in which some task could have made
// progress -- or a missed wake of a parked task shows up here as a
// diverging Result or a wedged run.
func FuzzCoresAgree(f *testing.F) {
	// seed, ops, task size, load/store/dep fractions, alias-set size,
	// loop-carried rate, stages, policy index into policy.All(), ablation
	// (0 none, 1 address tagging, 2 a predictor without the prediction
	// field).
	f.Add(uint64(1), 2000, 0, 0.0, 0.0, 0.0, 0, 0.0, uint8(8), uint8(5), uint8(0)) // the generator's defaults under ESYNC
	// Long MDST waits: every load dependent, every dependence loop-carried,
	// few stores in long tasks -- six ESYNC waits average 324 cycles.
	f.Add(uint64(3), 2000, 120, 0.3, 0.05, 1.0, 0, 1.0, uint8(8), uint8(5), uint8(0))
	// A 16-stage window, where ESYNC waits average 806 cycles.
	f.Add(uint64(4), 2000, 60, 0.0, 0.0, 1.0, 0, 1.0, uint8(16), uint8(5), uint8(0))
	// Intermittent dependences under blind speculation: squash-heavy.
	f.Add(uint64(7), 1500, 12, 0.0, 0.0, 0.8, 4, 0.5, uint8(4), uint8(1), uint8(0))
	// The long-wait spec under SYNC with each ablation.
	f.Add(uint64(3), 2000, 120, 0.3, 0.05, 1.0, 0, 1.0, uint8(8), uint8(4), uint8(1))
	f.Add(uint64(3), 2000, 120, 0.3, 0.05, 1.0, 0, 1.0, uint8(8), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, ops, taskSize int, loadFrac, storeFrac, depFrac float64,
		alias int, loopCarried float64, stages, pol, ablation uint8) {
		spec := synth.Spec{
			Seed: seed, Ops: ops, TaskSize: taskSize,
			LoadFrac: loadFrac, StoreFrac: storeFrac, DepFrac: depFrac,
			AliasSetSize: alias, LoopCarried: loopCarried,
		}
		if ops < 1 || ops > 2000 || spec.Validate() != nil {
			t.Skip("invalid spec, or longer than the fuzz budget")
		}
		w, err := Preprocess(spec.Build(1), trace.Config{})
		if err != nil {
			t.Fatal(err)
		}
		pols := policy.All()
		cfg := DefaultConfig(1+int(stages-1)%16, pols[int(pol)%len(pols)])
		switch ablation % 3 {
		case 1:
			cfg.MemDep.TagByAddress = true
		case 2:
			cfg.MemDep.Predictor = memdep.PredictAlways
		}
		event, err := SimulateContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("event core: %v", err)
		}
		cfg.Core = coreStepped
		stepped, err := SimulateContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("stepped loop: %v", err)
		}
		if !reflect.DeepEqual(event, stepped) {
			t.Fatalf("%+v at %d stages under %v with %+v: cores disagree:\nevent:   %+v\nstepped: %+v",
				spec, cfg.Stages, cfg.Policy, cfg.MemDep, event, stepped)
		}
		checkResultLaws(t, cfg, event)
		checkMisspecPairs(t, w, event)
		checkTasks(t, w, event)
	})
}

// TestWorkItemFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzDecodeWorkItem holds workItemFuzzSeeds byte for byte (go
// test runs committed corpus entries even without -fuzz), and regenerates
// the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestWorkItemFuzzSeedCorpusCommitted(t *testing.T) {
	var bodies []string
	for _, seed := range workItemFuzzSeeds(t) {
		bodies = append(bodies, corpusFile(seed))
	}
	checkCorpus(t, "FuzzDecodeWorkItem", bodies)
}

// prepFuzzSeed is one committed input of FuzzPreprocessAgainstReference: a
// synthetic spec and an instruction cut (0 for none).
type prepFuzzSeed struct {
	seed                         uint64
	ops, body, taskSize, spread  int
	loadFrac, storeFrac, depFrac float64
	alias                        int
	loopCarried                  float64
	cut                          uint16
}

// args returns the seed as the fuzz target's arguments, in order.
func (s prepFuzzSeed) args() []any {
	return []any{s.seed, s.ops, s.body, s.taskSize, s.spread, s.loadFrac, s.storeFrac, s.depFrac, s.alias, s.loopCarried, s.cut}
}

// prepFuzzSeeds returns the committed seed corpus of
// FuzzPreprocessAgainstReference.
func prepFuzzSeeds() []prepFuzzSeed {
	return []prepFuzzSeed{
		// The generator's defaults, run to the end.
		{seed: 1, ops: 2000},
		// Every load dependent and loop-carried, few stores in long tasks,
		// cut mid-stream.
		{seed: 3, ops: 2000, taskSize: 120, loadFrac: 0.3, storeFrac: 0.05, depFrac: 1.0, loopCarried: 1.0, cut: 777},
		// Tasks of one to seven instructions over an alias set of four,
		// cut after the first instruction.
		{seed: 7, ops: 1500, taskSize: 4, spread: 3, depFrac: 0.8, alias: 4, loopCarried: 0.5, cut: 1},
		// Task entries 1,024 instructions apart in a 4,096-instruction
		// body, where the functional simulator's forced boundary competes
		// with the static entries; the cut lies past the stream's end.
		{seed: 11, ops: 4000, body: 4096, taskSize: 1024, loadFrac: 0.4, storeFrac: 0.3, cut: 65535},
		// The smallest body, memory-heavy.
		{seed: 13, ops: 600, body: 16, taskSize: 8, loadFrac: 0.5, storeFrac: 0.45, depFrac: 1.0, alias: 2},
	}
}

// FuzzPreprocessAgainstReference holds Preprocess to referencePreprocess,
// which reads the functional simulator's stream and decodes each dynamic
// instruction's registers itself, over synthetic specs of at most 4,000
// ops and any instruction cut: every record, task window and count must
// agree, and so must decode(encode(w)), which must also equal w.
func FuzzPreprocessAgainstReference(f *testing.F) {
	for _, s := range prepFuzzSeeds() {
		f.Add(s.seed, s.ops, s.body, s.taskSize, s.spread, s.loadFrac, s.storeFrac, s.depFrac, s.alias, s.loopCarried, s.cut)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops, body, taskSize, spread int, loadFrac, storeFrac, depFrac float64,
		alias int, loopCarried float64, cut uint16) {
		spec := synth.Spec{
			Seed: seed, Ops: ops, Body: body, TaskSize: taskSize, TaskSpread: spread,
			LoadFrac: loadFrac, StoreFrac: storeFrac, DepFrac: depFrac,
			AliasSetSize: alias, LoopCarried: loopCarried,
		}
		if ops < 1 || ops > 4000 || spec.Validate() != nil {
			t.Skip("invalid spec, or longer than the fuzz budget")
		}
		p, cfg := spec.Build(1), trace.Config{MaxInstructions: uint64(cut)}
		w, err := Preprocess(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := referencePreprocess(t, p, cfg)
		checkAgainstReference(t, w, ref)
		got, err := DecodeWorkItem(AppendWorkItem(nil, w))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatal("decode(encode(w)) differs from w")
		}
		checkAgainstReference(t, got, ref)
	})
}

// TestPreprocessFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzPreprocessAgainstReference holds prepFuzzSeeds byte for
// byte, and regenerates the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestPreprocessFuzzSeedCorpusCommitted(t *testing.T) {
	var bodies []string
	for _, seed := range prepFuzzSeeds() {
		bodies = append(bodies, corpusFile(seed.args()...))
	}
	checkCorpus(t, "FuzzPreprocessAgainstReference", bodies)
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

// checkCorpus requires testdata/fuzz/<target>/seed-NN to hold bodies[NN]
// byte for byte (go test runs committed corpus entries even without -fuzz),
// writing them first when MEMDEP_UPDATE_CORPUS=1 is set.
func checkCorpus(t *testing.T, target string, bodies []string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	update := os.Getenv("MEMDEP_UPDATE_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, body := range bodies {
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
