package sim

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestRequestJSONRoundTrip populates every Request field with a non-default
// value and checks encode→decode→DeepEqual.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := Request{
		Bench: "espresso",
		Synth: &SynthSpec{
			Name: "stress", Seed: 9, Ops: 4096, Body: 128, TaskSize: 16,
			TaskSpread: 4, LoadFrac: 0.3, StoreFrac: 0.2, DepFrac: 0.7,
			DepDists:     []DistBucket{{Dist: 8, Weight: 2}, {Dist: 64, Weight: 1}},
			AliasSetSize: 4, LoopCarried: 0.4,
		},
		Stages:          4,
		Policy:          PolicySync,
		Core:            "stepped",
		Scale:           2,
		MaxInstructions: 123_456,
		MDPTEntries:     128,
		Predictor:       TableSetAssoc,
		MDPTWays:        2,
		DDCSizes:        []int{16, 64},
	}
	if n := reflect.TypeOf(req).NumField(); n != 11 {
		t.Fatalf("Request has %d fields; update this test to populate all of them", n)
	}
	if n := reflect.TypeOf(*req.Synth).NumField(); n != 12 {
		t.Fatalf("SynthSpec has %d fields; update this test to populate all of them", n)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", back, req)
	}

	// The normalized form must round trip exactly too (defaults are concrete
	// values, not omitted fields).
	norm := Request{Bench: "compress"}.Normalize()
	data, err = json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	back = Request{}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, back) {
		t.Fatalf("normalized request did not round trip:\n got %+v\nwant %+v", back, norm)
	}
}

// TestEnumSpellings checks that every enum parses all its accepted spellings
// (canonical, case-folded, aliases) and canonicalizes through JSON decoding.
func TestEnumSpellings(t *testing.T) {
	t.Run("policy", func(t *testing.T) {
		cases := map[string]Policy{
			"NEVER": PolicyNever, "never": PolicyNever,
			"ALWAYS": PolicyAlways, "Always": PolicyAlways,
			"WAIT":  PolicyWait,
			"PSYNC": PolicyPerfectSync, "psync": PolicyPerfectSync,
			"PERFECT-SYNC": PolicyPerfectSync, "perfectsync": PolicyPerfectSync,
			"SYNC":  PolicySync,
			"ESYNC": PolicyESync, "esync": PolicyESync, " Esync ": PolicyESync,
		}
		for spelling, want := range cases {
			got, err := ParsePolicy(spelling)
			if err != nil {
				t.Errorf("ParsePolicy(%q): %v", spelling, err)
				continue
			}
			if got != want {
				t.Errorf("ParsePolicy(%q) = %v, want %v", spelling, got, want)
			}
			var p Policy
			if err := json.Unmarshal([]byte(`"`+strings.TrimSpace(spelling)+`"`), &p); err != nil {
				t.Errorf("unmarshal %q: %v", spelling, err)
			} else if p != want {
				t.Errorf("unmarshal %q = %v, want canonical %v", spelling, p, want)
			}
		}
		if _, err := ParsePolicy("SOMETIMES"); err == nil {
			t.Error("ParsePolicy accepted an unknown policy")
		}
		if len(Policies()) != 6 {
			t.Errorf("Policies() = %v", Policies())
		}
	})

	t.Run("table", func(t *testing.T) {
		cases := map[string]TableKind{
			"full": TableFullAssoc, "FULL": TableFullAssoc,
			"setassoc": TableSetAssoc, "SetAssoc": TableSetAssoc,
			"storeset": TableStoreSet, "STORESET": TableStoreSet,
		}
		for spelling, want := range cases {
			got, err := ParseTableKind(spelling)
			if err != nil || got != want {
				t.Errorf("ParseTableKind(%q) = %v, %v; want %v", spelling, got, err, want)
			}
			var k TableKind
			if err := json.Unmarshal([]byte(`"`+spelling+`"`), &k); err != nil || k != want {
				t.Errorf("unmarshal %q = %v, %v; want %v", spelling, k, err, want)
			}
		}
		if _, err := ParseTableKind("cam"); err == nil {
			t.Error("ParseTableKind accepted an unknown organization")
		}
	})

	t.Run("core", func(t *testing.T) {
		// The deprecated field accepts the spellings of both former cores
		// and normalizes every one to the one core, so all of them share the
		// omitted field's canonical JSON: one cache entry, one fleet owner.
		want := Request{Bench: "compress"}.CanonicalJSON()
		for _, spelling := range []string{"", "event", "EVENT", "Event", "stepped", "Stepped", " STEPPED "} {
			var r Request
			if err := json.Unmarshal([]byte(`{"bench":"compress","core":"`+spelling+`"}`), &r); err != nil {
				t.Fatalf("unmarshal core %q: %v", spelling, err)
			}
			if err := r.Validate(); err != nil {
				t.Errorf("core %q rejected: %v", spelling, err)
			}
			if got := r.Normalize().Core; got != CoreEvent {
				t.Errorf("core %q normalizes to %q, want %q", spelling, got, CoreEvent)
			}
			if got := r.CanonicalJSON(); got != want {
				t.Errorf("core %q: canonical JSON %s, want %s", spelling, got, want)
			}
		}
	})
}

// TestValidateFieldErrors checks that Validate reports structured, per-field
// errors and collects several at once.
func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name   string
		req    Request
		fields []string
	}{
		{"empty", Request{}, []string{"bench"}},
		{"unknown bench", Request{Bench: "nope"}, []string{"bench"}},
		{"bad policy", Request{Bench: "compress", Policy: "SOMETIMES"}, []string{"policy"}},
		{"bad core", Request{Bench: "compress", Core: "polling"}, []string{"core"}},
		{"bad predictor", Request{Bench: "compress", Predictor: "cam"}, []string{"predictor"}},
		{"negative stages", Request{Bench: "compress", Stages: -1}, []string{"stages"}},
		{"huge stages", Request{Bench: "compress", Stages: 512}, []string{"stages"}},
		{"negative scale", Request{Bench: "compress", Scale: -2}, []string{"scale"}},
		{"negative entries", Request{Bench: "compress", MDPTEntries: -1}, []string{"mdpt_entries"}},
		{"negative ways", Request{Bench: "compress", MDPTWays: -1}, []string{"mdpt_ways"}},
		{"bad ddc size", Request{Bench: "compress", DDCSizes: []int{0}}, []string{"ddc_sizes"}},
		{"several at once", Request{Bench: "nope", Policy: "SOMETIMES", Stages: -1},
			[]string{"bench", "stages", "policy"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid request")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error is %T, want *ValidationError", err)
			}
			var got []string
			for _, f := range verr.Fields {
				got = append(got, f.Field)
			}
			if !reflect.DeepEqual(got, tc.fields) {
				t.Errorf("fields = %v, want %v", got, tc.fields)
			}
		})
	}

	if err := (Request{Bench: "compress"}).Validate(); err != nil {
		t.Errorf("minimal request rejected: %v", err)
	}
	if err := (Request{Bench: "101.tomcatv", Stages: 4, Policy: "perfect-sync",
		Predictor: "SETASSOC", Core: "Stepped", MDPTWays: 2}).Validate(); err != nil {
		t.Errorf("well-formed request rejected: %v", err)
	}
}

// TestNormalizeDefaults checks the documented defaults and canonicalization.
func TestNormalizeDefaults(t *testing.T) {
	n := Request{Bench: "compress", Policy: "esync", Core: "EVENT", Predictor: "Full"}.Normalize()
	want := Request{Bench: "compress", Stages: 8, Policy: PolicyESync, Core: CoreEvent,
		Predictor: TableFullAssoc, MDPTEntries: 64, Scale: 3}
	if !reflect.DeepEqual(n, want) {
		t.Errorf("Normalize = %+v, want %+v", n, want)
	}
	// Ways are echoed as the effective (clamped) geometry.
	n = Request{Bench: "compress", Predictor: TableSetAssoc}.Normalize()
	if n.MDPTWays != 4 {
		t.Errorf("setassoc default ways = %d, want 4", n.MDPTWays)
	}
	n = Request{Bench: "compress", Predictor: TableSetAssoc, MDPTEntries: 8, MDPTWays: 32}.Normalize()
	if n.MDPTWays != 8 {
		t.Errorf("ways not clamped to entries: %d", n.MDPTWays)
	}
	// Normalize is idempotent.
	once := Request{Bench: "sc", Predictor: TableStoreSet}.Normalize()
	if twice := once.Normalize(); !reflect.DeepEqual(once, twice) {
		t.Errorf("Normalize not idempotent: %+v vs %+v", once, twice)
	}
}

// TestValidationErrorJSON checks the structured error encodes as the shape
// the HTTP service documents.
func TestValidationErrorJSON(t *testing.T) {
	err := Request{Bench: "nope", Stages: -1}.Validate()
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T", err)
	}
	data, jerr := json.Marshal(verr)
	if jerr != nil {
		t.Fatal(jerr)
	}
	var decoded ValidationError
	if jerr := json.Unmarshal(data, &decoded); jerr != nil {
		t.Fatal(jerr)
	}
	if !reflect.DeepEqual(*verr, decoded) {
		t.Errorf("validation error did not round trip: %+v vs %+v", *verr, decoded)
	}
	if !strings.Contains(verr.Error(), "bench") || !strings.Contains(verr.Error(), "stages") {
		t.Errorf("Error() = %q, want both field names", verr.Error())
	}
}
