package policy

import (
	"testing"

	"memdep/internal/memdep"
)

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, k := range All() {
		got, err := Parse(k.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", k.String(), err)
			continue
		}
		if got != k {
			t.Errorf("Parse(String(%v)) = %v", k, got)
		}
	}
	if _, err := Parse("BOGUS"); err == nil {
		t.Error("unknown policy must fail to parse")
	}
}

// TestParseAliases pins the accepted alternative spellings: the long-form
// PERFECT-SYNC aliases parse to the same Kind as the paper's PSYNC, parsing
// is case-insensitive, and String canonicalizes every alias back to the
// paper's name (so alias → Parse → String → Parse round-trips).
func TestParseAliases(t *testing.T) {
	aliases := map[string]Kind{
		"PSYNC":        PerfectSync,
		"PERFECT-SYNC": PerfectSync,
		"PERFECTSYNC":  PerfectSync,
		"psync":        PerfectSync,
		"perfect-sync": PerfectSync,
		" esync ":      ESync,
		"sync":         Sync,
		"always":       Always,
	}
	for name, want := range aliases {
		got, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", name, got, want)
		}
		// Round-trip through the canonical spelling.
		canon, err := Parse(got.String())
		if err != nil || canon != want {
			t.Errorf("Parse(String(%v)) = %v, %v", want, canon, err)
		}
	}
	if PerfectSync.String() != "PSYNC" {
		t.Errorf("canonical spelling = %q, want the paper's PSYNC", PerfectSync.String())
	}
}

func TestNamesMatchPaper(t *testing.T) {
	want := map[Kind]string{
		Never:       "NEVER",
		Always:      "ALWAYS",
		Wait:        "WAIT",
		PerfectSync: "PSYNC",
		Sync:        "SYNC",
		ESync:       "ESYNC",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}

func TestAllContainsSixPolicies(t *testing.T) {
	if len(All()) != 6 {
		t.Errorf("All() = %d policies, want 6", len(All()))
	}
	for _, k := range All() {
		if !k.Valid() {
			t.Errorf("%v must be valid", k)
		}
		if k.Description() == "" || k.Description() == "unknown policy" {
			t.Errorf("%v has no description", k)
		}
	}
	if Kind(99).Valid() {
		t.Error("out-of-range kind must be invalid")
	}
}

func TestClassificationPredicates(t *testing.T) {
	if !Sync.UsesPredictor() || !ESync.UsesPredictor() {
		t.Error("SYNC and ESYNC use the predictor")
	}
	if Never.UsesPredictor() || Always.UsesPredictor() || Wait.UsesPredictor() || PerfectSync.UsesPredictor() {
		t.Error("NEVER, ALWAYS, WAIT and PSYNC do not use the predictor")
	}
}

func TestPredictorKindMapping(t *testing.T) {
	if pk, ok := Sync.PredictorKind(); !ok || pk != memdep.PredictSync {
		t.Errorf("Sync predictor = %v/%v", pk, ok)
	}
	if pk, ok := ESync.PredictorKind(); !ok || pk != memdep.PredictESync {
		t.Errorf("ESync predictor = %v/%v", pk, ok)
	}
	if _, ok := Always.PredictorKind(); ok {
		t.Error("Always must not map to a predictor")
	}
}
