package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memdep/internal/memdep"
	"memdep/sim"
)

// TestReportStructure runs every ledger entry once and checks the JSON
// trajectory holds a complete record for each row.  The shape, not the
// timing, is under test, so -count is 1 and test.benchtime is 1x for the
// test's duration: testing.Benchmark honours that flag, so every entry runs
// a single iteration.
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
	if code := run([]string{"-out", path, "-count", "1"}, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	rep, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Go == "" || rep.MaxProcs < 1 {
		t.Errorf("incomplete report header: %+v", rep)
	}
	if len(rep.Benchmarks) != len(ledger) {
		t.Fatalf("%d records for %d ledger rows", len(rep.Benchmarks), len(ledger))
	}
	for i, row := range ledger {
		rec := rep.Benchmarks[i]
		// A row whose allocation ceiling is 0 allocates nothing, so its
		// complete record reads 0 B/op.
		if rec.Name != row.name || rec.NsPerOp <= 0 || rec.Iterations <= 0 || (rec.BytesPerOp <= 0 && row.allocCeiling > 0) ||
			(row.perTask && rec.AllocsPerTask <= 0) {
			t.Errorf("row %s: degenerate record %+v", row.name, rec)
		}
	}
}

// TestSimulateRowsMatchTheService holds the simulate/event* rows to what a
// served request computes.  Each row's configuration is the one the service
// echoes for the same request, and, run on the rows' one arena in ledger
// order and then again, it gives the cycles, misspeculations and prediction
// breakdown that sim.Session.Run answers.  (On this work item the three
// organizations give equal results, so only the echo tells them apart.)
func TestSimulateRowsMatchTheService(t *testing.T) {
	ctx := context.Background()
	in, err := newInputs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(in.storeDir)
	const base = `{"bench":"xlisp","scale":1,"max_instructions":50000,"stages":8,"policy":"ESYNC"`
	tables := []struct {
		row   string
		table memdep.TableKind
		req   string
	}{
		{"simulate/event", memdep.TableFullAssoc, base + `}`},
		{"simulate/event/setassoc", memdep.TableSetAssoc, base + `,"predictor":"setassoc","mdpt_ways":4}`},
		{"simulate/event/storeset", memdep.TableStoreSet, base + `,"predictor":"storeset","mdpt_ways":4}`},
	}
	session := sim.NewSession()
	for pass := range 2 {
		for _, tc := range tables {
			var req sim.Request
			if err := json.Unmarshal([]byte(tc.req), &req); err != nil {
				t.Fatal(err)
			}
			want, err := session.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			cfg := simConfig(tc.table)
			md := cfg.MemDep.Effective()
			r := want.Request
			if row, served := fmt.Sprintf("%d %v %v/%dx%d", cfg.Stages, cfg.Policy, md.Table, md.Entries, md.Ways),
				fmt.Sprintf("%d %v %v/%dx%d", r.Stages, r.Policy, r.Predictor, r.MDPTEntries, r.MDPTWays); row != served {
				t.Errorf("%s runs %s, the service %s", tc.row, row, served)
			}
			got, err := in.arena.Simulate(ctx, in.xlispItem, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != want.Cycles || got.Misspeculations != want.Misspeculations || got.Breakdown != want.Breakdown {
				t.Errorf("pass %d, %s: cycles %d, misspeculations %d, breakdown %+v; the service answers %d, %d, %+v",
					pass, tc.row, got.Cycles, got.Misspeculations, got.Breakdown, want.Cycles, want.Misspeculations, want.Breakdown)
			}
		}
	}
}

// TestCommittedBaselineCoversLedger holds the committed trajectory to its
// own gate: every row has a baseline record, every baseline record has a
// row, and every recorded allocs/op is within its row's ceiling.
func TestCommittedBaselineCoversLedger(t *testing.T) {
	base, err := load(filepath.Join("..", "..", "BENCH_multiscalar.json"))
	if err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]record, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		recorded[b.Name] = b
	}
	run := make([]record, len(ledger))
	for i, row := range ledger {
		run[i] = recorded[row.name]
	}
	var out strings.Builder
	if err := gate(ledger, run, base.Benchmarks, &out); err != nil {
		t.Errorf("%v\n%s", err, out.String())
	}
}

// The gate tests run a two-row ledger against a baseline of its two
// records.
var (
	testRows = []entry{
		{name: "fast", allocTolerance: 0.05, allocCeiling: 150},
		{name: "lean", allocTolerance: 0.05, allocCeiling: 150},
	}
	testBase = []record{
		{Name: "fast", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 64},
		{Name: "lean", NsPerOp: 800, AllocsPerOp: 100, BytesPerOp: 64},
	}
)

// testRun returns a run that repeats the baseline's records, with edit
// applied to each.
func testRun(edit func(*record)) []record {
	run := append([]record(nil), testBase...)
	for i := range run {
		edit(&run[i])
	}
	return run
}

// runGate gates run against base over rows and returns the verdict lines.
func runGate(rows []entry, run, base []record) (string, error) {
	var out strings.Builder
	err := gate(rows, run, base, &out)
	return out.String(), err
}

func TestPassWithinTolerance(t *testing.T) {
	// 2.5x the baseline's ns/op and +5% allocs/op are the largest that pass.
	run := testRun(func(r *record) {
		r.NsPerOp = r.NsPerOp * 5 / 2
		r.AllocsPerOp = 105
	})
	out, err := runGate(testRows, run, testBase)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "ok   fast") || !strings.Contains(out, "ok (2 entries gated)") || strings.Contains(out, "FAIL") {
		t.Errorf("output:\n%s", out)
	}
}

func TestImprovementAlwaysPasses(t *testing.T) {
	run := testRun(func(r *record) {
		r.NsPerOp /= 10
		r.AllocsPerOp = 1
	})
	if out, err := runGate(testRows, run, testBase); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

func TestTimeRegressionFails(t *testing.T) {
	run := testRun(func(r *record) {
		if r.Name == "lean" {
			r.NsPerOp = 2001 // one past 2.5x
		}
	})
	out, err := runGate(testRows, run, testBase)
	if err == nil {
		t.Fatalf("a time regression passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL lean: ns/op") || !strings.Contains(out, "ok   fast") {
		t.Errorf("output:\n%s", out)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	run := testRun(func(r *record) { r.AllocsPerOp = 106 }) // +6% > 5%
	out, err := runGate(testRows, run, testBase)
	if err == nil {
		t.Fatalf("an allocs/op regression passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL fast: allocs/op") {
		t.Errorf("output:\n%s", out)
	}
}

func TestAllocCeilingFails(t *testing.T) {
	// The run repeats the baseline, so the relative checks all pass; only
	// the absolute ceiling trips.
	rows := append([]entry(nil), testRows...)
	rows[0].allocCeiling = 99
	run := testRun(func(*record) {})
	out, err := runGate(rows, run, testBase)
	if err == nil {
		t.Fatalf("a ceiling breach passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL fast: allocs/op 100 exceeds the absolute ceiling of 99") {
		t.Errorf("output:\n%s", out)
	}
	// At the ceiling the same run passes.
	rows[0].allocCeiling = 100
	if out, err := runGate(rows, run, testBase); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

func TestMissingEntryFails(t *testing.T) {
	// A baseline record the ledger no longer runs: the row was deleted, but
	// its record was not.
	base := append([]record{{Name: "gone", NsPerOp: 500, AllocsPerOp: 3}}, testBase...)
	out, err := runGate(testRows, testRun(func(*record) {}), base)
	if err == nil {
		t.Fatalf("a baseline entry missing from the run passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL gone: present in baseline, missing from the run") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRowWithoutBaselineFails(t *testing.T) {
	// A new row whose record was never added to the baseline.
	rows := append(append([]entry(nil), testRows...), entry{name: "new", allocTolerance: 0.05, allocCeiling: 150})
	run := append(testRun(func(*record) {}), record{Name: "new", NsPerOp: 10, AllocsPerOp: 1})
	out, err := runGate(rows, run, testBase)
	if err == nil {
		t.Fatalf("a row with no baseline record passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL new: no baseline record") || !strings.Contains(out, "ok   fast") {
		t.Errorf("output:\n%s", out)
	}
}

func TestZeroMetricFails(t *testing.T) {
	// A metric that stops being measured must not read as an infinite
	// improvement.
	run := testRun(func(r *record) {
		if r.Name == "fast" {
			r.NsPerOp = 0
		}
	})
	out, err := runGate(testRows, run, testBase)
	if err == nil {
		t.Fatalf("a zero metric passed:\n%s", out)
	}
	if !strings.Contains(out, "metric missing from the run") {
		t.Errorf("output:\n%s", out)
	}
}

func TestZeroGatedEntriesFails(t *testing.T) {
	// An empty gate is a broken gate, not a green one: an empty baseline,
	// or an empty ledger, must fail instead of passing.
	out, err := runGate(testRows, testRun(func(*record) {}), nil)
	if err == nil || !strings.Contains(err.Error(), "vacuously pass") {
		t.Fatalf("err = %v, want a vacuous-gate failure\n%s", err, out)
	}
	if strings.Contains(out, "ok (") {
		t.Errorf("an empty gate must not report ok:\n%s", out)
	}
	if out, err := runGate(nil, nil, nil); err == nil {
		t.Fatalf("an empty ledger passed:\n%s", out)
	}
}

func TestBadInputs(t *testing.T) {
	// A baseline that cannot be read fails before anything is measured.
	malformed := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(malformed, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-baseline", malformed},
		{"-baseline", filepath.Join(t.TempDir(), "does-not-exist.json")},
		{"-no-such-flag"},
	} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr: %s", args, code, stderr.String())
		}
	}
}
