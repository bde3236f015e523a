package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	count := metricSpec{Name: "engine.executed", Unit: "count", Better: "lower"}
	layer := metricSpec{Name: "trace.run.self_ms", Unit: "ms", Better: "lower"}
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, verdictWithin},
		{"worse within the bound", lower, steady, []float64{108, 109, 107, 108}, verdictWithin},
		{"worse beyond the bound", lower, steady, []float64{115, 116, 114, 115}, verdictRegressed},
		{"throughput fell beyond the bound", higher, steady, []float64{85, 86, 84, 85}, verdictRegressed},
		{"throughput rose", higher, steady, []float64{130, 131, 129}, verdictWithin},
		{"spread wider than the bound", lower, steady, []float64{70, 130, 90, 160}, verdictUnresolved},
		{"wide spread but every change run better", lower, []float64{100, 140, 120, 180}, []float64{50, 60, 70, 55}, verdictWithin},
		{"count repeats in any order", count, []float64{224, 225}, []float64{225, 224}, verdictEqual},
		{"count differs", count, []float64{224}, []float64{256}, verdictDiffers},
		{"unbounded layer time", layer, steady, []float64{200}, verdictInfo},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRecordsAndFlagsRegressions(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			res := &result{Correct: true, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				res.Metrics[m.Name] = metricValue{Value: 100 + float64(i), Unit: m.Unit}
			}
			res.Metrics["p50_ms"] = metricValue{Value: p50 + float64(i), Unit: "ms"}
			raw := map[string]float64{"p50_ms": 2 * (p50 + float64(i))}
			if err := appendRecord(path, record{Workload: "simulate-hot", Seed: uint64(i), Result: res, Raw: raw}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slower, failing := write("base", 100, 0), write("same", 100, 0), write("slower", 150, 0), write("failing", 100, 1)
	var out, errs bytes.Buffer
	if code := compareMain(root, []string{base, same}, &out, &errs); code != 0 {
		t.Errorf("identical runs: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if n := strings.Count(out.String(), verdictWithin); n != len(spec.EndToEnd) {
		t.Errorf("identical runs: %d within rows, want %d:\n%s", n, len(spec.EndToEnd), out.String())
	}
	if !strings.Contains(out.String(), "p50_ms (measured)") || strings.Count(out.String(), verdictInfo) != 1 {
		t.Errorf("identical runs: want one unbounded row of p50_ms as measured:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain(root, []string{base, slower}, &out, &errs); code != 1 || !strings.Contains(out.String(), "p50_ms") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slower p50: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain(root, []string{base, failing}, &out, &errs); code != 1 || !strings.Contains(out.String(), "failed") {
		t.Errorf("more failures: exit %d\n%s", code, out.String())
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain(root, []string{base, filepath.Join(dir, "bad")}, &out, &errs); code != 1 {
		t.Errorf("malformed record file: exit %d, want 1", code)
	}
}
