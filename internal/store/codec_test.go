package store

import (
	"context"
	"os"
	"reflect"
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
