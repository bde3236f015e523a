package store

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
)

// TestResultEncodingPinned pins the persisted encoding of a simulation
// result: a populated multiscalar.Result must encode to the bytes committed
// under testdata/pinned and decode back to itself.  The result codec writes
// no field names, so a field renamed, moved, retyped, added or removed could
// otherwise let a later build read an object written by an earlier one with
// its counters misplaced.  When it fails, bump store.Version, so objects
// written by earlier builds read as misses, then regenerate the file with
// MEMDEP_UPDATE_CORPUS=1.
func TestResultEncodingPinned(t *testing.T) {
	var res multiscalar.Result
	populate(reflect.ValueOf(&res).Elem(), "Result")
	checkPinnedEncoding(t, multiscalar.SimulateKind, res)
}

// TestWindowResultEncodingPinned pins the persisted encoding of a window
// analysis, for the same reason as TestResultEncodingPinned.
func TestWindowResultEncodingPinned(t *testing.T) {
	var analysis []window.Result
	populate(reflect.ValueOf(&analysis).Elem(), "Analysis")
	checkPinnedEncoding(t, window.AnalyzeKind, analysis)
}

// TestWorkItemEncodingPinned pins the persisted encoding of a work item,
// compress cut at 300 instructions, for the same reason: the work-item
// encoding carries no version of its own, so a change to it must move
// store.Version like a change to a result's.
func TestWorkItemEncodingPinned(t *testing.T) {
	item, err := multiscalar.Preprocess(workload.MustGet("compress").Build(1), trace.Config{MaxInstructions: 300})
	if err != nil {
		t.Fatal(err)
	}
	checkPinnedEncoding(t, multiscalar.PreprocessKind, item)
}

// checkPinnedEncoding encodes v with kind's codec, checks that it decodes
// back to v, and compares the bytes with testdata/pinned, rewriting the file
// first under MEMDEP_UPDATE_CORPUS=1.
func checkPinnedEncoding(t *testing.T, kind string, v any) {
	t.Helper()
	codec := defaultCodec(t, kind)
	data, err := codec.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := codec.Decode(data); err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("%s: the populated value does not survive its codec (err %v)", kind, err)
	}
	name := filepath.Join("testdata", "pinned", sanitizeKind(kind))
	if os.Getenv("MEMDEP_UPDATE_CORPUS") == "1" {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(name); err != nil || !bytes.Equal(data, want) {
		t.Errorf("the persisted encoding of %s changed (%v): bump store.Version (now %d), then regenerate %s with MEMDEP_UPDATE_CORPUS=1", kind, err, Version, name)
	}
}

// TestResultCodecRoundTrip pins the result codec loss-free on real
// simulation results, including the PairKey-keyed mis-speculation map and
// the DDC miss rates.
func TestResultCodecRoundTrip(t *testing.T) {
	codec := defaultCodec(t, multiscalar.SimulateKind)
	for _, pol := range []policy.Kind{policy.Always, policy.ESync} {
		res := compressResult(t, pol)
		if len(res.MisspecPairs) == 0 {
			t.Fatalf("%v: no mis-speculated pairs; test needs a non-trivial map", pol)
		}
		data, err := codec.Encode(res)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("result did not round trip through the codec:\n got %+v\nwant %+v", back, res)
		}
	}
}

// compressResult simulates compress, 40k instructions, at 8 stages under
// pol with two DDC sizes.
func compressResult(t testing.TB, pol policy.Kind) multiscalar.Result {
	t.Helper()
	item, err := multiscalar.Preprocess(workload.MustGet("compress").Build(1), trace.Config{MaxInstructions: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiscalar.DefaultConfig(8, pol)
	cfg.DDCSizes = []int{32, 128}
	res, err := multiscalar.SimulateContext(context.Background(), item, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWindowCodecRoundTrip pins the window codec loss-free on the analyses a
// warm sweep reads back -- the five SPECint92 benchmarks under the quick
// options -- and on an aliasing synthetic workload, whose analyses carry
// static pair counts and fractional DDC miss rates.
func TestWindowCodecRoundTrip(t *testing.T) {
	eng := engine.New(2)
	eng.Register(workload.BuildSimulator(), synth.BuildSimulator(), multiscalar.PreprocessSimulator(), window.AnalyzeSimulator())
	quick := trace.Config{MaxInstructions: 40_000}
	var programs []engine.Spec
	for _, name := range workload.SPECint92Names() {
		programs = append(programs, workload.BuildJob{Name: name, Scale: 1})
	}
	programs = append(programs, synth.BuildJob{Spec: synth.Spec{Seed: 7, Ops: 20_000, AliasSetSize: 4}.Normalize(), Scale: 1})

	codec := defaultCodec(t, window.AnalyzeKind)
	pairs, fractional := false, false
	for _, prog := range programs {
		job := window.AnalyzeJob{Item: multiscalar.PreprocessJob{Program: prog, Trace: quick}}
		want, err := engine.Resolve[[]window.Result](context.Background(), eng, job)
		if err != nil {
			t.Fatal(err)
		}
		data, err := codec.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the window analysis does not survive its codec:\ngot  %+v\nwant %+v", engine.Key(prog), got, want)
		}
		for _, r := range want {
			pairs = pairs || len(r.PairCounts) > 0
			for _, rate := range r.DDCMissRate {
				fractional = fractional || rate != math.Trunc(rate)
			}
		}
	}
	if !pairs || !fractional {
		t.Errorf("the analyses carry pair counts: %v, fractional DDC miss rates: %v; want both covered", pairs, fractional)
	}
}

// defaultCodec returns the codec DefaultCodecs registers for kind.
func defaultCodec(t *testing.T, kind string) Codec {
	t.Helper()
	for _, c := range DefaultCodecs() {
		if c.Kind() == kind {
			return c
		}
	}
	t.Fatalf("DefaultCodecs registers no codec for %s", kind)
	return nil
}

// populate sets every exported field reachable from v, whose path is path,
// to a non-zero value derived from the field's path: one element per slice
// and map, every element of an array.  A field renamed, moved or retyped
// therefore changes the encoding, as one added or removed does.
func populate(v reflect.Value, path string) {
	h := fnv.New32a()
	h.Write([]byte(path))
	n := h.Sum32()%100_000 + 1
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				populate(v.Field(i), path+"."+f.Name)
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			populate(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0), path+"[]")
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		populate(k, path+"{key}")
		populate(e, path+"{}")
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.String:
		v.SetString(path)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) / 8)
	}
}
