package experiments

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/program"
	"memdep/internal/stats"
	"memdep/internal/store"
	"memdep/internal/window"
	"memdep/internal/workload"
)

func quickRunner() *Runner {
	return newRunner(Quick())
}

// newRunner creates a runner with a fresh engine of GOMAXPROCS workers.
func newRunner(opts Options) *Runner {
	return NewRunnerWithEngine(opts, NewEngine(0))
}

// simulate runs (and caches) one benchmark under the standard configuration
// for a policy and stage count.
func (r *Runner) simulate(ctx context.Context, name string, stages int, pol policy.Kind) (multiscalar.Result, error) {
	return engine.Resolve[multiscalar.Result](ctx, r.eng, r.simSpec(name, stages, pol))
}

func TestOptionsDefaults(t *testing.T) {
	if !slices.Equal(stageCounts, []int{4, 8}) {
		t.Errorf("stages = %v", stageCounts)
	}
	// A zero MDPTEntries runs the paper's 64-entry table: the simulation
	// shares its job with an explicit 64.
	zero := (&Runner{}).simSpec("compress", 8, policy.ESync)
	explicit := (&Runner{opts: Options{MDPTEntries: 64}}).simSpec("compress", 8, policy.ESync)
	if engine.Key(zero) != engine.Key(explicit) {
		t.Errorf("entries 0 and 64 run different jobs:\n%s\n%s", engine.Key(zero), engine.Key(explicit))
	}
	if Quick().MaxInstructions == 0 {
		t.Error("quick options must cap instructions")
	}
	if Full().MaxInstructions != 0 {
		t.Error("full options must not cap instructions")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := quickRunner()
	w1, err := engine.Resolve[*multiscalar.WorkItem](context.Background(), r.eng, r.workItemSpec("compress"))
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := engine.Resolve[*multiscalar.WorkItem](context.Background(), r.eng, r.workItemSpec("compress"))
	if w1 != w2 {
		t.Error("work items must be cached")
	}
	res1, err := r.simulate(context.Background(), "compress", 4, policy.Always)
	if err != nil {
		t.Fatal(err)
	}
	executed := r.eng.Executed()
	res2, _ := r.simulate(context.Background(), "compress", 4, policy.Always)
	if res1.Cycles != res2.Cycles {
		t.Error("cached simulation must return the same result")
	}
	if r.eng.Executed() != executed {
		t.Error("repeated simulation must be served from the engine cache")
	}
	// program + work item + one timing simulation.
	if n := r.eng.CacheLen(); n != 3 {
		t.Errorf("engine cache has %d entries, want 3", n)
	}
	if _, err := engine.Resolve[*program.Program](context.Background(), r.eng, r.programSpec("no-such-benchmark")); err == nil {
		t.Error("unknown benchmark must error")
	}
}

// TestTable1 pins Table 1's shape and its source: the counts it reads from
// the 8-stage ALWAYS results are each benchmark's work-item counts, and the
// result commits every task of its work item exactly once.
func TestTable1(t *testing.T) {
	r := quickRunner()
	ctx := context.Background()
	tab, err := r.Table1DynamicCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := append(workload.SPECint92Names(), workload.SPEC95Names()...)
	if tab.NumRows() != len(names) {
		t.Fatalf("rows = %d, want %d", tab.NumRows(), len(names))
	}
	if !strings.Contains(tab.Render(), "compress") {
		t.Error("table must mention compress")
	}
	for row, name := range names {
		w, err := engine.Resolve[*multiscalar.WorkItem](ctx, r.eng, r.workItemSpec(name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.simulate(ctx, name, 8, policy.Always)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tasks != uint64(w.Tasks()) {
			t.Errorf("%s: the result commits %d tasks, its work item holds %d", name, res.Tasks, w.Tasks())
		}
		want := []string{name, workload.MustGet(name).Suite.String(),
			stats.FormatCount(w.Instructions),
			stats.FormatCount(w.Loads),
			stats.FormatCount(w.Stores),
			stats.FormatCount(uint64(w.Tasks())),
			stats.FormatFloat(float64(w.Instructions)/float64(w.Tasks()), 1)}
		for col := range want {
			if got := tab.Cell(row, col); got != want[col] {
				t.Errorf("%s: %s = %q, want the work item's %q", name, tab.Columns[col], got, want[col])
			}
		}
	}
}

func TestTable3And4Shapes(t *testing.T) {
	r := quickRunner()
	t3, err := r.Table3WindowMisspec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumRows() != len(window.DefaultWindowSizes()) {
		t.Fatalf("table 3 rows = %d", t3.NumRows())
	}
	t4, err := r.Table4StaticCoverage(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if t4.NumRows() != len(window.DefaultWindowSizes()) {
		t.Fatalf("table 4 rows = %d", t4.NumRows())
	}
	// The number of static pairs covering 99.9% of mis-speculations at the
	// largest window must be small relative to the dynamic counts.
	last := t4.NumRows() - 1
	for col := 1; col <= len(workload.SPECint92Names()); col++ {
		n, err := strconv.Atoi(t4.Cell(last, col))
		if err != nil {
			t.Fatalf("cell not an integer: %q", t4.Cell(last, col))
		}
		if n > 500 {
			t.Errorf("column %d: %d static pairs for 99.9%% coverage, expected a small number", col, n)
		}
	}
}

func TestTable5MissRatesDecreaseWithDDCSize(t *testing.T) {
	r := quickRunner()
	tab, err := r.Table5DDCMissRate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in groups of three DDC sizes per window size; within each
	// group the miss rate must not increase with capacity.
	for g := 0; g < tab.NumRows(); g += 3 {
		for col := 2; col < 2+len(workload.SPECint92Names()); col++ {
			small, _ := strconv.ParseFloat(tab.Cell(g, col), 64)
			large, _ := strconv.ParseFloat(tab.Cell(g+2, col), 64)
			if large > small+1e-9 {
				t.Errorf("row group %d col %d: miss rate grew with DDC size (%v -> %v)",
					g, col, small, large)
			}
		}
	}
}

// TestWindowTablesReadStoredAnalyses runs Tables 3-5 twice over one store
// directory, each pass on a fresh engine.  The three tables share one
// analysis per benchmark, and the window analyses persist, so the second
// pass reads the five SPECint92 analyses back: it executes nothing and
// looks up no work item.
func TestWindowTablesReadStoredAnalyses(t *testing.T) {
	dir := t.TempDir()
	tables := []func(*Runner, context.Context) (*stats.Table, error){
		(*Runner).Table3WindowMisspec, (*Runner).Table4StaticCoverage, (*Runner).Table5DDCMissRate,
	}
	var executed [2]uint64
	var rendered [2]string
	var kinds map[string]store.Counters
	for pass := range executed {
		eng := NewEngine(2)
		st := store.Open(dir, store.DefaultCodecs()...)
		eng.SetTier(st)
		r := NewRunnerWithEngine(Quick(), eng)
		for _, table := range tables {
			tab, err := table(r, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rendered[pass] += tab.Render()
		}
		executed[pass] = eng.Executed()
		kinds = st.KindCounters()
	}
	if executed[1] != 0 {
		t.Errorf("warm pass executed %d jobs, want 0 (cold pass: %d)", executed[1], executed[0])
	}
	if c := kinds[window.AnalyzeKind]; c.Hits != uint64(len(workload.SPECint92Names())) || c.Misses != 0 {
		t.Errorf("warm window-analysis store counters = %+v, want one hit per SPECint92 benchmark", c)
	}
	if c := kinds[multiscalar.PreprocessKind]; c != (store.Counters{}) {
		t.Errorf("warm work-item store counters = %+v, want no lookup", c)
	}
	if rendered[0] != rendered[1] {
		t.Error("warm tables differ from cold ones")
	}
}

func TestTable6And9Consistency(t *testing.T) {
	r := quickRunner()
	t6, err := r.Table6MultiscalarMisspec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if t6.NumRows() != len(stageCounts) {
		t.Errorf("table 6 rows = %d", t6.NumRows())
	}
	t9, err := r.Table9MisspecPerLoad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Table 9: the mechanism rows (SYNC/ESYNC) must show lower
	// mis-speculation rates than the ALWAYS rows for most benchmarks.
	better := 0
	total := 0
	rowsPerStage := 3
	for s := 0; s < len(stageCounts); s++ {
		base := s * rowsPerStage
		for col := 2; col < 2+len(workload.SPECint92Names()); col++ {
			always, _ := strconv.ParseFloat(t9.Cell(base, col), 64)
			sync, _ := strconv.ParseFloat(t9.Cell(base+1, col), 64)
			total++
			if sync <= always {
				better++
			}
		}
	}
	if better*2 < total {
		t.Errorf("SYNC reduced the mis-speculation rate in only %d/%d cases", better, total)
	}
}

func TestTable8PercentagesSum(t *testing.T) {
	r := quickRunner()
	tab, err := r.Table8PredictionBreakdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in groups of four categories; each benchmark column must sum
	// to ~100% within a group.
	for g := 0; g+3 < tab.NumRows(); g += 4 {
		for col := 3; col < 3+len(workload.SPECint92Names()); col++ {
			sum := 0.0
			for k := 0; k < 4; k++ {
				v, _ := strconv.ParseFloat(tab.Cell(g+k, col), 64)
				sum += v
			}
			if sum < 99.0 || sum > 101.0 {
				t.Errorf("group %d col %d: breakdown sums to %.2f%%", g, col, sum)
			}
		}
	}
}

func TestFigure5Shapes(t *testing.T) {
	r := quickRunner()
	tab, err := r.Figure5PolicyComparison(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != len(stageCounts)*len(workload.SPECint92Names()) {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// ALWAYS and PSYNC speedups over NEVER must be positive for every
	// benchmark (the paper's headline observation).
	for row := 0; row < tab.NumRows(); row++ {
		for _, col := range []int{3, 5} { // ALWAYS, PSYNC
			v := strings.TrimSuffix(strings.TrimPrefix(tab.Cell(row, col), "+"), "%")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("cell %q not a speedup", tab.Cell(row, col))
			}
			if f <= 0 {
				t.Errorf("row %d (%s): %s speedup over NEVER is %v, want > 0",
					row, tab.Cell(row, 1), tab.Columns[col], f)
			}
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	r := quickRunner()
	tab, err := r.Figure6MechanismSpeedup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() == 0 {
		t.Fatal("empty table")
	}
	// PSYNC (the ideal bound) must never be clearly below ALWAYS.
	for row := 0; row < tab.NumRows(); row++ {
		v := strings.TrimSuffix(strings.TrimPrefix(tab.Cell(row, 5), "+"), "%")
		f, _ := strconv.ParseFloat(v, 64)
		if f < -2.0 {
			t.Errorf("row %d (%s): PSYNC %v%% below ALWAYS", row, tab.Cell(row, 1), f)
		}
	}
}

func TestLookupAndAll(t *testing.T) {
	all := All()
	if len(all) < 14 {
		t.Fatalf("experiments = %d, want >= 14", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, id := range []string{"table3", "figure5", "figure7", "ablation-tagging"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("table99"); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestSensitivitySweepShape checks the predictor-organization sweep: one row
// per policy × organization, the baseline row present, and every cell a
// positive IPC.
func TestSensitivitySweepShape(t *testing.T) {
	r := quickRunner()
	tab, err := r.SensitivityPredictorOrg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(sensitivityPolicies()) * len(sensitivityOrgs())
	if tab.NumRows() != wantRows {
		t.Fatalf("rows = %d, want %d", tab.NumRows(), wantRows)
	}
	if !strings.Contains(tab.Render(), "full 64e 3b") {
		t.Error("the paper's baseline organization must appear in the sweep")
	}
	for row := 0; row < tab.NumRows(); row++ {
		for col := 2; col < 2+len(workload.SPECint92Names()); col++ {
			ipc, err := strconv.ParseFloat(tab.Cell(row, col), 64)
			if err != nil || ipc <= 0 {
				t.Errorf("row %d col %d: IPC cell %q", row, col, tab.Cell(row, col))
			}
		}
	}
}

// TestSensitivityBaselineMatchesAblation cross-checks the sweep against the
// standard grid: the sweep's fully-associative 64-entry 3-bit row is the same
// configuration as the plain 8-stage simulation, so the IPCs must agree.
func TestSensitivityBaselineMatchesAblation(t *testing.T) {
	r := quickRunner()
	tab, err := r.SensitivityPredictorOrg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for col, name := range workload.SPECint92Names() {
		res, err := r.simulate(context.Background(), name, 8, policy.Sync)
		if err != nil {
			t.Fatal(err)
		}
		want := tab.Cell(0, 2+col) // first row is SYNC / full 64e 3b
		got := strconv.FormatFloat(res.IPC(), 'f', 2, 64)
		if got != want {
			t.Errorf("%s: sweep baseline IPC %s != standard grid IPC %s", name, want, got)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow; skipped in -short mode")
	}
	r := quickRunner()
	if _, err := r.AblationTagging(context.Background()); err != nil {
		t.Errorf("tagging ablation: %v", err)
	}
	if _, err := r.AblationPredictor(context.Background()); err != nil {
		t.Errorf("predictor ablation: %v", err)
	}
}
