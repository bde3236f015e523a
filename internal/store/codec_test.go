package store

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"memdep/internal/engine"
	"memdep/internal/isa"
	"memdep/internal/multiscalar"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
)

// TestStaleWorkItemFormatIsMissAndRewritten pins the work-item format
// contract: an intact object holding a work item of an older format version
// is an expected invalidation -- a miss, never corruption -- and the next
// compute rewrites it in the current format.
func TestStaleWorkItemFormatIsMissAndRewritten(t *testing.T) {
	s := Open(t.TempDir(), DefaultCodecs()...)
	job := multiscalar.PreprocessJob{
		Program: workload.BuildJob{Name: "compress", Scale: 1},
		Trace:   trace.Config{MaxInstructions: 2_000},
	}
	kind, key := job.JobKind(), job.CacheKey()

	// A format-1 work item, built by hand: version 1, name "v1", one task at
	// pc 0 holding one NOP at pc 0 (no sources, no memory producer).
	v1 := []byte{1, 2, 'v', '1', 1, 0, 1, byte(isa.NOP), 0, 0, 0}
	digest := keyDigest(kind, key)
	if err := writeAtomic(s.objectPath(kind, digest), appendEnvelope(nil, digest, v1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(kind, key); ok {
		t.Fatal("a format-1 work item read as a hit")
	}
	if c := s.KindCounters()[kind]; c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v, want the stale format counted as a miss, not corruption", c)
	}

	// The next compute goes through the tier, misses again and rewrites the
	// object; the rewritten object then loads as a hit equal to the compute.
	eng := engine.New(1)
	eng.Register(workload.BuildSimulator(), multiscalar.PreprocessSimulator())
	eng.SetTier(s)
	computed, err := engine.Resolve[*multiscalar.WorkItem](context.Background(), eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.KindCounters()[kind]; c.Misses != 2 || c.Corrupt != 0 || c.Writes != 1 {
		t.Fatalf("counters after the compute = %+v, want a second miss and one rewrite", c)
	}
	v, ok := s.Load(kind, key)
	if !ok {
		t.Fatal("the rewritten object does not load")
	}
	if !reflect.DeepEqual(v, computed) {
		t.Fatal("the rewritten object decodes to a different work item")
	}
	if data, err := os.ReadFile(s.objectPath(kind, digest)); err != nil || len(data) <= headerLen+len(v1) {
		t.Fatalf("object was not rewritten in the current format (%d bytes, err %v)", len(data), err)
	}
}

// resultKeyPaths are the sorted JSON key paths of a fully populated
// multiscalar.Result as the result codec persists it.  encoding/json skips
// keys it does not know, so a renamed or added key would read an object
// written by an earlier build as a hit with zeroed counters.
var resultKeyPaths = []string{
	"ARB.loads", "ARB.refused", "ARB.stores", "ARB.violations",
	"Benchmark", "Breakdown[][]",
	"Cache.bank_wait", "Cache.bus_transfers", "Cache.bus_wait", "Cache.data_accesses",
	"Cache.data_misses", "Cache.instr_accesses", "Cache.instr_misses",
	"Cycles", "DDCMissRate.1", "FalseDependenceReleases", "Instructions", "Loads", "LoadsWaited",
	"MemDep.esync_filtered", "MemDep.load_queries", "MemDep.loads_made_to_wait",
	"MemDep.loads_predicted_dependent", "MemDep.loads_released_by_store",
	"MemDep.loads_released_stale", "MemDep.loads_signalled_early", "MemDep.misspeculations",
	"MemDep.store_queries", "MemDep.stores_signalled",
	"MisspecPairs.st@0x1->ld@0x1", "Misspeculations", "Policy",
	"Sequencer.descriptor_misses", "Sequencer.mispredictions", "Sequencer.predictor_accuracy",
	"Sequencer.task_dispatches",
	"SquashedInstructions", "Squashes", "Stages", "Stores", "Tasks", "WaitCycles",
}

// TestResultJSONKeyPaths pins the persisted shape of a simulation result.
// When it fails, the result codec's payload changed: bump store.Version, so
// objects written by earlier builds read as misses, then update
// resultKeyPaths.
func TestResultJSONKeyPaths(t *testing.T) {
	var res multiscalar.Result
	populate(reflect.ValueOf(&res).Elem())
	if got := persistedKeyPaths(t, multiscalar.SimulateKind, res); !slices.Equal(got, resultKeyPaths) {
		t.Fatalf("the JSON key paths of a persisted multiscalar.Result changed: bump store.Version (now %d), then update resultKeyPaths to\n%#v", Version, got)
	}
}

// windowKeyPaths are the sorted JSON key paths of a fully populated
// []window.Result as the window codec persists it, for the same reason as
// resultKeyPaths.
var windowKeyPaths = []string{
	"[].DDCMissRate.1", "[].Loads", "[].Misspeculations",
	"[].PairCounts.st@0x1->ld@0x1", "[].PairsForCoverage", "[].StaticPairs", "[].WindowSize",
}

// TestWindowResultJSONKeyPaths pins the persisted shape of a window
// analysis.  When it fails, bump store.Version, then update windowKeyPaths.
func TestWindowResultJSONKeyPaths(t *testing.T) {
	var res []window.Result
	populate(reflect.ValueOf(&res).Elem())
	if got := persistedKeyPaths(t, window.AnalyzeKind, res); !slices.Equal(got, windowKeyPaths) {
		t.Fatalf("the JSON key paths of a persisted []window.Result changed: bump store.Version (now %d), then update windowKeyPaths to\n%#v", Version, got)
	}
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

// persistedKeyPaths encodes v with kind's default codec and returns the
// sorted key paths of the JSON document it persists.
func persistedKeyPaths(t *testing.T, kind string, v any) []string {
	t.Helper()
	data, err := defaultCodec(t, kind).Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	keyPaths(doc, "", paths)
	return slices.Sorted(maps.Keys(paths))
}

// populate sets every exported field reachable from v to a non-zero value:
// one element per slice and map, every element of an array.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i))
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			populate(v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		populate(k)
		populate(e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	}
}

// keyPaths adds the dotted path of every leaf of a decoded JSON document to
// paths; array elements share their array's path with a "[]" suffix.
func keyPaths(doc any, prefix string, paths map[string]bool) {
	switch d := doc.(type) {
	case map[string]any:
		for k, v := range d {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			keyPaths(v, p, paths)
		}
	case []any:
		for _, v := range d {
			keyPaths(v, prefix+"[]", paths)
		}
	default:
		paths[prefix] = true
	}
}
