package multiscalar

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"memdep/internal/policy"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// TestParseCoreModeRoundTrip checks that ParseCoreMode inverts String for the
// event-driven core, case-insensitively (matching policy.Parse), and rejects
// every other name -- the stepped reference loop included, which only this
// package's tests can select.
func TestParseCoreModeRoundTrip(t *testing.T) {
	for _, spelling := range []string{CoreEvent.String(), "EVENT", "  Event "} {
		got, err := ParseCoreMode(spelling)
		if err != nil || got != CoreEvent {
			t.Fatalf("ParseCoreMode(%q) = %v, %v; want %v", spelling, got, err, CoreEvent)
		}
	}
	for _, name := range []string{coreStepped.String(), "polling", ""} {
		if _, err := ParseCoreMode(name); err == nil {
			t.Errorf("ParseCoreMode(%q) accepted a core callers cannot select", name)
		}
	}
}

// TestResultJSONRoundTrip encodes a real simulation result -- including the
// PairKey-keyed mis-speculation map and the DDC miss rates -- and checks the
// decoded value is deeply equal.
func TestResultJSONRoundTrip(t *testing.T) {
	item, err := Preprocess(workload.MustGet("compress").Build(1),
		trace.Config{MaxInstructions: 40_000})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for _, pol := range []policy.Kind{policy.Always, policy.ESync} {
		cfg := DefaultConfig(8, pol)
		cfg.DDCSizes = []int{32, 128}
		res, err := SimulateContext(context.Background(), item, cfg)
		if err != nil {
			t.Fatalf("Simulate(%v): %v", pol, err)
		}
		if len(res.MisspecPairs) == 0 {
			t.Fatalf("%v: no mis-speculated pairs; test needs a non-trivial map", pol)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal result: %v", err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal result: %v", err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Fatalf("result did not round trip through JSON:\n got %+v\nwant %+v", back, res)
		}
	}
}
