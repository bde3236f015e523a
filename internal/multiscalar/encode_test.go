package multiscalar

import (
	"reflect"
	"strings"
	"testing"

	"memdep/internal/policy"
	"memdep/internal/trace"
)

// TestWorkItemEncodeRoundTrip pins the binary work-item codec loss-free:
// a preprocessed stream must survive encode/decode bit-for-bit, derived
// fields included, because the persistent store feeds decoded work items to
// the same simulations as computed ones.
func TestWorkItemEncodeRoundTrip(t *testing.T) {
	p := buildRecurrence(20)
	w := prep(t, p, 0)

	enc := AppendWorkItem(nil, w)
	got, err := DecodeWorkItem(enc)
	if err != nil {
		t.Fatalf("DecodeWorkItem: %v", err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("decoded work item differs from the preprocessed one:\ngot  %+v\nwant %+v", got, w)
	}

	// The decoded item must simulate identically to the original.
	want := simulate(t, w, 8, policy.Sync)
	have := simulate(t, got, 8, policy.Sync)
	if !reflect.DeepEqual(have, want) {
		t.Fatal("simulation of the decoded work item differs from the original")
	}

	// Encoding is deterministic, and round-trips byte-identically.
	if again := AppendWorkItem(nil, got); !reflect.DeepEqual(again, enc) {
		t.Fatal("re-encoding the decoded work item changed the bytes")
	}
}

// TestWorkItemEncodeAppends pins the append contract: encoding extends dst
// rather than replacing it.
func TestWorkItemEncodeAppends(t *testing.T) {
	w := prep(t, buildRecurrence(3), 0)
	prefix := []byte("prefix")
	enc := AppendWorkItem(prefix, w)
	if !strings.HasPrefix(string(enc), "prefix") {
		t.Fatal("AppendWorkItem did not preserve dst")
	}
	if _, err := DecodeWorkItem(enc[len(prefix):]); err != nil {
		t.Fatalf("decoding after the prefix: %v", err)
	}
}

// TestWorkItemDecodeRejectsMalformed feeds the decoder systematically
// damaged encodings; every one must return an error (never panic, never a
// bogus item).
func TestWorkItemDecodeRejectsMalformed(t *testing.T) {
	w := prep(t, buildRecurrence(5), 0)
	enc := AppendWorkItem(nil, w)

	// Every truncation must fail: the encoding is self-delimiting, so a
	// prefix is never a valid work item.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeWorkItem(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(enc))
		}
	}

	// Trailing garbage must fail too.
	if _, err := DecodeWorkItem(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}

	// An empty stream is not a work item.
	if _, err := DecodeWorkItem([]byte{0, 0, 0}); err == nil {
		t.Fatal("zero-task encoding decoded successfully")
	}
}

// TestWorkItemDecodeRejectsForwardProducers corrupts a producer reference to
// point forwards; the decoder must reject it rather than hand the simulator
// a reference it would index out of bounds.
func TestWorkItemDecodeRejectsForwardProducers(t *testing.T) {
	// The last load with a memory producer claims a producer 99 instructions
	// after itself.
	w := prep(t, buildRecurrence(2), 0)
	victim := -1
	for i := range w.insts {
		if w.insts[i].memProd >= 0 {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no load with a memory producer in the recurrence workload")
	}
	w.insts[victim].memProd = int32(victim + 99)
	if _, err := DecodeWorkItem(AppendWorkItem(nil, w)); err == nil ||
		!strings.Contains(err.Error(), "does not precede") {
		t.Fatalf("forward producer: err = %v", err)
	}
}

// TestWorkItemDecodeRejectsBadPreviousAccess corrupts a memory operation's
// back-reference to name an instruction that is not a load or store; the
// decoder must reject it rather than copy an address id that was never
// numbered.
func TestWorkItemDecodeRejectsBadPreviousAccess(t *testing.T) {
	w := prep(t, buildRecurrence(2), 0)
	victim, other := -1, -1
	for i := range w.insts {
		r := &w.insts[i]
		switch {
		case r.prevMem >= 0 && victim < 0:
			victim = i
		case !r.isLoad() && !r.isStore() && other < 0:
			other = i
		}
	}
	if victim < 0 || other < 0 || other > victim {
		t.Fatalf("the recurrence workload lacks a repeated access after a non-memory op (victim %d, other %d)", victim, other)
	}
	w.insts[victim].prevMem = int32(other)
	if _, err := DecodeWorkItem(AppendWorkItem(nil, w)); err == nil ||
		!strings.Contains(err.Error(), "not a load or store") {
		t.Fatalf("previous access %d names %v: err = %v", victim, w.insts[other].op, err)
	}
}

// TestWorkItemEncodeMaxInstructions pins that a truncated trace (the quick
// presets) round-trips too: task boundaries near the cap are preserved.
func TestWorkItemEncodeMaxInstructions(t *testing.T) {
	p := buildRecurrence(50)
	w, err := Preprocess(p, trace.Config{MaxInstructions: 100})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWorkItem(AppendWorkItem(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatal("bounded work item did not round-trip")
	}
}
