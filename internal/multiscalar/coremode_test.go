package multiscalar

import "testing"

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
