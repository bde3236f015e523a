package multiscalar

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
