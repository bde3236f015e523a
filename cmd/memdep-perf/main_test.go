package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportStructure runs the micro-benchmarks once each (sweep skipped:
// its timings dominate test time; -count 1 because the shape, not the
// fastest timing, is under test) and checks the JSON trajectory keeps the
// names and fields CI asserts on.
func TestReportStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runs are slow; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	if code := run([]string{"-out", path, "-skip-sweep", "-count", "1"}, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Go == "" || rep.MaxProcs < 1 {
		t.Errorf("incomplete report header: %+v", rep)
	}
	want := map[string]bool{
		"simulate/event":          false,
		"simulate/event/setassoc": false,
		"simulate/event/storeset": false,
		"preprocess/synth20k":     false,
		"preprocess/xlisp":        false,
		"workitem/encode":         false,
		"workitem/decode":         false,
		"engine/key/simulate":     false,
	}
	for _, rec := range rep.Benchmarks {
		if _, ok := want[rec.Name]; ok {
			want[rec.Name] = true
			perTask := strings.HasPrefix(rec.Name, "simulate/")
			if rec.NsPerOp <= 0 || rec.Iterations <= 0 || rec.BytesPerOp <= 0 || (perTask && rec.AllocsPerTask <= 0) {
				t.Errorf("%s: degenerate record %+v", rec.Name, rec)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trajectory record %q missing", name)
		}
	}
}
