package main

import (
	"bytes"
	"context"
	"slices"
	"testing"
)

// TestSmoke runs every workload, traced, at tiny sizes: every correctness
// check must pass, no operation may fail, and every metric BENCHMARK.json
// names must be produced -- the end-to-end ones non-zero on every workload,
// each per-layer one non-zero on at least one.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds memdep-bench and memdep-server and runs them")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.EqualFunc(names, workloads, func(n string, w workload) bool { return n == w.name }) {
		t.Fatalf("BENCHMARK.json names workloads %v; the benchmark runs %v", names, workloads)
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		var out, log bytes.Buffer
		cfg := runConfig{seed: 1, seconds: 0.2, trace: true, size: smokeSizes}
		rr, err := runWorkload(context.Background(), root, spec, w, cfg, &out, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		e2e, layers := rr.e2e, rr.layers
		if !layers.Correct || layers.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d\n%s", w.name, layers.Correct, layers.Failed, log.String())
		}
		for _, m := range spec.EndToEnd {
			if v := e2e.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		for _, m := range spec.PerLayer {
			if v, ok := layers.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.name, m.Name)
			} else if v.Value != 0 {
				seen[m.Name] = true
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer %s is zero on every workload", m.Name)
		}
	}
}
