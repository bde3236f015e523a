package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportStructure runs the micro-benchmarks once each and checks the
// JSON trajectory keeps the names and fields CI asserts on.  The shape, not
// the timing, is under test, so the sweep is skipped, -count is 1 and
// test.benchtime is 1x for the test's duration: testing.Benchmark honours
// that flag, so every entry runs a single iteration.
func TestReportStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runs are slow; skipped in -short mode")
	}
	benchtime := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", benchtime) })
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
		"window/analyze":          false,
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
