package store

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"memdep/internal/engine"
	"memdep/internal/isa"
	"memdep/internal/multiscalar"
	"memdep/internal/trace"
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
	data, err := resultCodec{}.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	keyPaths(doc, "", paths)
	got := slices.Sorted(maps.Keys(paths))
	if !slices.Equal(got, resultKeyPaths) {
		t.Fatalf("the JSON key paths of a persisted multiscalar.Result changed: bump store.Version (now %d), then update resultKeyPaths to\n%#v", Version, got)
	}
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
