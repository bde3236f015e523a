package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
)

// fuzzDigest is the fixed key digest FuzzStoreDecode validates against; the
// seed corpus is built for it, and mutated inputs that carry any other digest
// exercise the key-mismatch path.
var fuzzDigest = sha256.Sum256([]byte("fuzz/kind\x00fuzz-key"))

// appendEnvelope appends an object as Save writes it, the header of payload
// and then the payload, to dst.
func appendEnvelope(dst []byte, keyDigest [sha256.Size]byte, payload []byte) []byte {
	h := header(keyDigest, payload)
	return append(append(dst, h[:]...), payload...)
}

// fuzzSeeds returns the committed seed corpus: one intact envelope plus the
// canonical near-misses (each failure branch of decodeEnvelope).
func fuzzSeeds() [][]byte {
	intact := appendEnvelope(nil, fuzzDigest, []byte("payload"))
	empty := appendEnvelope(nil, fuzzDigest, nil)

	badMagic := append([]byte{}, intact...)
	badMagic[0] = 'X'

	wrongVersion := append([]byte{}, intact...)
	wrongVersion[4] = Version + 1

	wrongKey := append([]byte{}, intact...)
	wrongKey[8] ^= 0xff

	badSum := append([]byte{}, intact...)
	badSum[40] ^= 0xff

	badLen := append([]byte{}, intact...)
	badLen[72] ^= 0x01

	return [][]byte{
		intact,
		empty,
		intact[:headerLen-1],            // truncated header
		intact[:len(intact)-2],          // truncated payload
		append([]byte{}, intact[:0]...), // empty input
		badMagic,
		wrongVersion,
		wrongKey,
		badSum,
		badLen,
		append(append([]byte{}, intact...), 0xaa), // trailing byte
	}
}

// FuzzStoreDecode fuzzes the envelope reader with the contract the store
// relies on: decodeEnvelope never panics, and any input it accepts is exactly
// the canonical encoding of its payload -- so a successful decode re-encodes
// byte-identically, and everything else is a miss.
func FuzzStoreDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeEnvelope(data, fuzzDigest)
		if err != nil {
			return // a miss; the store recomputes
		}
		if got := appendEnvelope(nil, fuzzDigest, payload); !bytes.Equal(got, data) {
			t.Fatalf("accepted envelope is not canonical:\ninput    %x\nreencode %x", data, got)
		}
	})
}

// TestFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzStoreDecode holds fuzzSeeds byte for byte (go test runs
// committed corpus entries even without -fuzz), and regenerates the files
// when MEMDEP_UPDATE_CORPUS=1 is set.
func TestFuzzSeedCorpusCommitted(t *testing.T) {
	checkCorpus(t, "FuzzStoreDecode", fuzzSeeds())
}

// resultCodecSeeds returns the committed seed corpus of FuzzResultCodec: a
// real ESYNC result with mis-speculated pairs and DDC miss rates, a window
// analysis with pair counts and fractional DDC miss rates, nil and empty
// analyses, and the near-misses a canonical decoder must refuse --
// truncations, a trailing byte, map keys out of order and a non-minimal
// varint.
func resultCodecSeeds(t testing.TB) [][]byte {
	t.Helper()
	encode := func(c Codec, v any) []byte {
		data, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	esync := encode(resultCodec, compressResult(t, policy.ESync))
	item, err := multiscalar.Preprocess(workload.MustGet("espresso").Build(1), trace.Config{MaxInstructions: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	analysis := encode(windowCodec, window.Analyze(item, window.Config{WindowSizes: []int{16, 128}, DDCSizes: []int{4, 32}}))

	// Two DDC miss rates, each entry a one-byte key and an 8-byte rate,
	// followed by a nil pair-count map: swapping the entries puts the keys
	// out of order.
	ordered := encode(windowCodec, []window.Result{{WindowSize: 1, DDCMissRate: map[int]float64{1: 0.5, 2: 0.25}}})
	n := len(ordered)
	swapped := slices.Concat(ordered[:n-19], ordered[n-10:n-1], ordered[n-19:n-10], ordered[n-1:])
	if _, err := windowCodec.Decode(swapped); !errors.Is(err, errKeyOrder) {
		t.Fatalf("the swapped-keys seed decodes with error %v, want %v", err, errKeyOrder)
	}

	return [][]byte{
		esync,
		analysis,
		encode(windowCodec, []window.Result(nil)),
		encode(windowCodec, []window.Result{}),
		ordered,
		esync[:len(esync)/2],           // truncated mid-payload
		analysis[:len(analysis)-1],     // missing the last byte
		append(slices.Clone(esync), 0), // a trailing byte
		swapped,                        // map keys out of order
		{0x80, 0x00},                   // a non-minimal varint
		{},                             // empty input
	}
}

// FuzzResultCodec fuzzes both result codecs with the contract the store
// relies on: Decode never panics, and any input it accepts re-encodes
// byte-identically -- so a payload an earlier build wrote is either read
// exactly or refused, and everything refused is a miss.
func FuzzResultCodec(f *testing.F) {
	for _, seed := range resultCodecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Codec{resultCodec, windowCodec} {
			v, err := c.Decode(data)
			if err != nil {
				continue // a miss; the store recomputes
			}
			if got, err := c.Encode(v); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: accepted payload is not canonical (err %v):\ninput    %x\nreencode %x", c.Kind(), err, data, got)
			}
		}
	})
}

// TestResultCodecSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzResultCodec holds resultCodecSeeds byte for byte, and
// regenerates the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestResultCodecSeedCorpusCommitted(t *testing.T) {
	checkCorpus(t, "FuzzResultCodec", resultCodecSeeds(t))
}

// checkCorpus requires testdata/fuzz/<target>/seed-NN to hold seeds[NN] as
// a corpus file, writing the files first when MEMDEP_UPDATE_CORPUS=1 is set.
func checkCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
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
		if got, err := os.ReadFile(name); err != nil || string(got) != body {
			t.Fatalf("seed corpus entry %s is missing or stale (regenerate with MEMDEP_UPDATE_CORPUS=1): %v", name, err)
		}
	}
}
