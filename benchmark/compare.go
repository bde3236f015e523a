package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// record is one line of an -out file: one run's result.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
	// Raw holds the end-to-end timings and rates as measured, before they
	// were scaled to the reference speed.
	Raw map[string]float64 `json:"raw,omitempty"`
}

// appendRecord appends rec to a JSON-lines file.
func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a JSON-lines file written with -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("%s: record without a result", path)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// The verdicts of one (workload, metric) comparison.
const (
	verdictWithin     = "within"     // no worse than the bound allows
	verdictRegressed  = "regressed"  // worse by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictEqual      = "equal"      // a count that repeats exactly
	verdictDiffers    = "differs"    // a count that does not
	verdictInfo       = "info"       // a per-layer time: no bound
)

// verdict compares change runs b against base runs a for one metric.  A
// count must repeat exactly.  A bounded metric regresses when b's median is
// worse than a's by more than the bound, as a share of a's median; when
// either side's interquartile spread exceeds the bound the comparison is
// unresolved, unless every run of b is better than every run of a.
func verdict(m metricSpec, a, b []float64) string {
	if m.Unit == "count" {
		if slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))) {
			return verdictEqual
		}
		return verdictDiffers
	}
	if m.Bound == 0 {
		return verdictInfo
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if m.Better == "higher" {
		worse = (ma - mb) / ma
		better = func(x, y float64) bool { return x > y }
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if max(spread(a), spread(b)) > m.Bound && !allBetter {
		return verdictUnresolved
	}
	if worse > m.Bound {
		return verdictRegressed
	}
	return verdictWithin
}

// compareMain prints one verdict row per (workload, metric) for two
// JSON-lines files of runs, base first, and beside each scaled end-to-end
// metric an unbounded row of its values as measured.  It exits 1 when a
// metric regressed or a count differs.
func compareMain(root string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	spec, err := loadSpec(root)
	var base, change []record
	if err == nil {
		base, err = readRecords(args[0])
	}
	if err == nil {
		change, err = readRecords(args[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-32s %14s %14s %8s %6s  %s\n", "workload", "metric", "base p50", "change p50", "change", "bound", "verdict")
	row := func(workload, name string, va, vb []float64, bound float64, v string) {
		ma, mb := median(va), median(vb)
		change := 0.0
		if ma != 0 {
			change = 100 * (mb - ma) / ma
		}
		b := "-"
		if bound > 0 {
			b = fmt.Sprintf("%.0f%%", 100*bound)
		}
		fmt.Fprintf(stdout, "%-14s %-32s %14.4f %14.4f %+7.1f%% %6s  %s\n",
			workload, name, ma, mb, change, b, v)
	}
	for _, w := range spec.Workloads {
		for trace, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			a, b := values(base, w.Name, trace, false), values(change, w.Name, trace, false)
			rawA, rawB := values(base, w.Name, trace, true), values(change, w.Name, trace, true)
			for _, m := range list {
				va, vb := a[m.Name], b[m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v := verdict(m, va, vb)
				if v == verdictRegressed || v == verdictDiffers {
					code = 1
				}
				row(w.Name, m.Name, va, vb, m.Bound, v)
				if trace == 0 && len(rawA[m.Name]) > 0 && len(rawB[m.Name]) > 0 {
					row(w.Name, m.Name+" (measured)", rawA[m.Name], rawB[m.Name], 0, verdictInfo)
				}
			}
			if fa, fb := failures(base, w.Name, trace), failures(change, w.Name, trace); fb > fa {
				fmt.Fprintf(stdout, "%-14s %-32s %14d %14d %8s %6s  %s\n", w.Name, "failed", fa, fb, "", "", verdictRegressed)
				code = 1
			}
		}
	}
	return code
}

// values collects each metric's values over the runs of one workload and
// trace mode: the result's metrics, or with raw the values as measured.
func values(recs []record, workload string, trace int, raw bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, rec := range recs {
		if rec.Workload != workload || rec.Trace != trace {
			continue
		}
		if raw {
			for name, v := range rec.Raw { //lint:deterministic appends per key; each key's order follows recs
				out[name] = append(out[name], v)
			}
			continue
		}
		for name, m := range rec.Result.Metrics { //lint:deterministic appends per key; each key's order follows recs
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// failures totals the failed operations over the runs of one workload and
// trace mode.
func failures(recs []record, workload string, trace int) int {
	n := 0
	for _, rec := range recs {
		if rec.Workload == workload && rec.Trace == trace {
			n += rec.Result.Failed
		}
	}
	return n
}
