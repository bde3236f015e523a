package multiscalar

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"memdep/internal/policy"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// workItemFuzzSeeds returns the committed seed corpus: real encodings of one
// synthetic and one paper workload, and truncations of them.  The streams are
// bounded to 64 instructions: small seeds keep the fuzzer mutating rather
// than minimizing.
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
		syn[:len(syn)/2],                // truncated mid-stream
		paper[:len(paper)-1],            // missing the last byte
		paper[:8],                       // header only
		{},                              // empty input
		append([]byte{1}, paper[1:]...), // another format version
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
		_, _ = Simulate(w, cfg) // errors (cycle limit, wedge) are fine; panics are not
	})
}

// FuzzCoresAgree is the differential oracle of the event-driven core (after
// McKeeman, "Differential Testing for Software", 1998): for any valid
// synthetic spec of at most 2,000 ops, any stage count from 1 to 16 and any
// policy, the event-driven core and the stepped reference loop must produce
// deeply equal Results.  A wrong jump target -- a skipped cycle in which some
// task could have made progress -- shows up here as a diverging Result.
func FuzzCoresAgree(f *testing.F) {
	// seed, ops, task size, load/store/dep fractions, alias-set size,
	// loop-carried rate, stages, policy index into policy.All().
	f.Add(uint64(1), 2000, 0, 0.0, 0.0, 0.0, 0, 0.0, uint8(8), uint8(5)) // the generator's defaults under ESYNC
	// Long MDST waits: every load dependent, every dependence loop-carried,
	// few stores in long tasks -- six ESYNC waits average 324 cycles.
	f.Add(uint64(3), 2000, 120, 0.3, 0.05, 1.0, 0, 1.0, uint8(8), uint8(5))
	// A 16-stage window, where ESYNC waits average 806 cycles.
	f.Add(uint64(4), 2000, 60, 0.0, 0.0, 1.0, 0, 1.0, uint8(16), uint8(5))
	// Intermittent dependences under blind speculation: squash-heavy.
	f.Add(uint64(7), 1500, 12, 0.0, 0.0, 0.8, 4, 0.5, uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, ops, taskSize int, loadFrac, storeFrac, depFrac float64,
		alias int, loopCarried float64, stages, pol uint8) {
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
		event, err := Simulate(w, cfg)
		if err != nil {
			t.Fatalf("event core: %v", err)
		}
		cfg.Core = coreStepped
		stepped, err := Simulate(w, cfg)
		if err != nil {
			t.Fatalf("stepped loop: %v", err)
		}
		if !reflect.DeepEqual(event, stepped) {
			t.Fatalf("%+v at %d stages under %v: cores disagree:\nevent:   %+v\nstepped: %+v",
				spec, cfg.Stages, cfg.Policy, event, stepped)
		}
	})
}

// TestWorkItemFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzDecodeWorkItem holds workItemFuzzSeeds byte for byte (go
// test runs committed corpus entries even without -fuzz), and regenerates
// the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestWorkItemFuzzSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeWorkItem")
	seeds := workItemFuzzSeeds(t)
	update := os.Getenv("MEMDEP_UPDATE_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
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
