package sim

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// TestRunMatchesInternalSimulator checks the facade end to end: a Run through
// the session produces exactly the numbers the internal simulator produces
// for the equivalent hand-assembled configuration.
func TestRunMatchesInternalSimulator(t *testing.T) {
	s := NewSession(WithWorkers(2))
	req := Request{Bench: "compress", Stages: 8, Policy: PolicyESync, MaxInstructions: 40_000}
	res, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	item, err := multiscalar.Preprocess(workload.MustGet("compress").Build(workload.MustGet("compress").DefaultScale),
		trace.Config{MaxInstructions: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := multiscalar.SimulateContext(context.Background(), item, multiscalar.DefaultConfig(8, policy.ESync))
	if err != nil {
		t.Fatal(err)
	}

	if res.Cycles != want.Cycles {
		t.Errorf("cycles = %d, want %d", res.Cycles, want.Cycles)
	}
	if res.Instructions != want.Instructions || res.Loads != want.Loads {
		t.Errorf("work = %d/%d, want %d/%d", res.Instructions, res.Loads, want.Instructions, want.Loads)
	}
	if res.Misspeculations != want.Misspeculations {
		t.Errorf("misspeculations = %d, want %d", res.Misspeculations, want.Misspeculations)
	}
	if res.IPC != want.IPC() {
		t.Errorf("IPC = %v, want %v", res.IPC, want.IPC())
	}
	if res.Cycles == 0 || res.IPC <= 0 {
		t.Error("degenerate result")
	}
	if res.Tasks != uint64(item.Tasks()) {
		t.Errorf("tasks = %d, want the work item's %d", res.Tasks, item.Tasks())
	}
	if want := float64(item.Instructions) / float64(item.Tasks()); res.AvgTaskSize != want {
		t.Errorf("avg task size = %v, want the work item's %v", res.AvgTaskSize, want)
	}
	if len(res.MisspecPairs) == 0 || res.MisspecPairs[0].Store == "" {
		t.Error("mis-speculated pairs must be annotated with disassembly")
	}
	if res.Request.Stages != 8 || res.Request.Policy != PolicyESync || res.Request.Scale == 0 {
		t.Errorf("result must echo the normalized request, got %+v", res.Request)
	}
}

// TestRunGridSharesWorkItems checks the cache contract: a grid over policies
// and stage counts preprocesses the benchmark once.
func TestRunGridSharesWorkItems(t *testing.T) {
	s := NewSession(WithWorkers(4))
	var reqs []Request
	for _, stages := range []int{4, 8} {
		for _, pol := range []Policy{PolicyAlways, PolicySync, PolicyESync} {
			reqs = append(reqs, Request{Bench: "sc", Stages: stages, Policy: pol, MaxInstructions: 30_000})
		}
	}
	results, err := s.RunGrid(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Cycles == 0 {
			t.Errorf("result %d has zero cycles", i)
		}
		if res.Request.Stages != reqs[i].Stages || res.Request.Policy != reqs[i].Policy {
			t.Errorf("result %d answers the wrong request: %+v", i, res.Request)
		}
	}
	// 1 build + 1 preprocess + 6 simulations.
	if st := s.Stats(); st.Executed != 8 {
		t.Errorf("executed %d jobs, want 8 (shared work item)", st.Executed)
	}

	// Re-running the same grid is served entirely from the cache.
	before := s.Stats().Executed
	if _, err := s.RunGrid(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().Executed; after != before {
		t.Errorf("re-run executed %d new jobs, want 0", after-before)
	}
}

// TestRunGridPositionalAndDeterministic checks that results are positional
// and byte-identical at every worker count.
func TestRunGridPositionalAndDeterministic(t *testing.T) {
	reqs := []Request{
		{Bench: "compress", Stages: 8, Policy: PolicyESync, MaxInstructions: 20_000},
		{Bench: "compress", Stages: 4, Policy: PolicyAlways, MaxInstructions: 20_000},
		{Bench: "xlisp", Stages: 8, Policy: PolicySync, MaxInstructions: 20_000},
	}
	render := func(workers int) string {
		s := NewSession(WithWorkers(workers))
		results, err := s.RunGrid(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	one := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != one {
			t.Errorf("results differ between 1 and %d workers", workers)
		}
	}
}

// TestRunGridValidationError checks that an invalid request in a grid is
// rejected up front with its index and structured fields.
func TestRunGridValidationError(t *testing.T) {
	s := NewSession()
	_, err := s.RunGrid(context.Background(), []Request{
		{Bench: "compress", MaxInstructions: 10_000},
		{Bench: "no-such-bench"},
	})
	if err == nil {
		t.Fatal("grid with an invalid request must fail")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T, want wrapped *ValidationError", err)
	}
	if verr.Fields[0].Field != "bench" {
		t.Errorf("field = %q, want bench", verr.Fields[0].Field)
	}
}

// TestRunHonoursCancellation checks that a cancelled context aborts a run.
func TestRunHonoursCancellation(t *testing.T) {
	s := NewSession(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Run(ctx, Request{Bench: "compress", MaxInstructions: 10_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// The cancellation must not poison the cache for a live caller.
	res, err := s.Run(context.Background(), Request{Bench: "compress", MaxInstructions: 10_000})
	if err != nil || res.Cycles == 0 {
		t.Fatalf("fresh run after cancellation: %v, %+v", err, res)
	}
}

// TestResultJSONRoundTrip checks the public result round-trips through JSON.
func TestResultJSONRoundTrip(t *testing.T) {
	s := NewSession()
	res, err := s.Run(context.Background(), Request{
		Bench: "compress", Policy: PolicyAlways, MaxInstructions: 20_000, DDCSizes: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DDCMissRate) == 0 || len(res.MisspecPairs) == 0 {
		t.Fatal("test needs a result with DDC rates and pairs")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Fatalf("result did not round trip:\n got %+v\nwant %+v", back, *res)
	}
}

// TestBenchmarksAndExperiments checks the catalogue endpoints.
func TestBenchmarksAndExperiments(t *testing.T) {
	benches := Benchmarks()
	if len(benches) < 20 {
		t.Errorf("benchmarks = %d, want the full suite", len(benches))
	}
	seen := map[string]bool{}
	for _, b := range benches {
		if b.Name == "" || b.Suite == "" || b.DefaultScale < 1 {
			t.Errorf("incomplete benchmark %+v", b)
		}
		seen[b.Name] = true
	}
	for _, name := range []string{"compress", "xlisp", "101.tomcatv"} {
		if !seen[name] {
			t.Errorf("benchmark %s missing", name)
		}
	}

	exps := Experiments()
	if len(exps) < 14 {
		t.Errorf("experiments = %d", len(exps))
	}

	s := NewSession()
	var tab *Table
	if err := s.RunExperiments(context.Background(), []string{"table6"}, SuiteOptions{Quick: true}, func(_ Experiment, t *Table) { tab = t }); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || tab.Render() == "" || tab.CSV() == "" {
		t.Error("experiment table is empty")
	}
	if err := s.RunExperiments(context.Background(), []string{"table99"}, SuiteOptions{}, func(Experiment, *Table) {}); err == nil {
		t.Error("unknown experiment must fail")
	}
}

// TestRunExperimentsNamesTheFailure checks the side-by-side sweep's errors:
// an unknown ID is a *ValidationError before anything runs, and with the
// context already cancelled every driver fails, and the error reported names
// the first experiment requested.
func TestRunExperimentsNamesTheFailure(t *testing.T) {
	s := NewSession()
	noTable := func(e Experiment, _ *Table) { t.Errorf("yielded %s", e.ID) }
	var verr *ValidationError
	if err := s.RunExperiments(context.Background(), []string{"table6", "table99"}, SuiteOptions{Quick: true}, noTable); !errors.As(err, &verr) {
		t.Errorf("unknown experiment: error = %v, want a *ValidationError", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.RunExperiments(ctx, []string{"table6", "table1"}, SuiteOptions{Quick: true}, noTable)
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "table6: ") {
		t.Errorf("cancelled sweep: error = %v, want table6's cancellation", err)
	}
	if st := s.Stats(); st.Executed != 0 {
		t.Errorf("cancelled sweep executed %d jobs", st.Executed)
	}
}

// TestInspection exercises Trace, Disassemble, TaskSizes and Window.
func TestInspection(t *testing.T) {
	s := NewSession()
	ctx := context.Background()
	treq := TraceRequest{Bench: "compress", MaxInstructions: 40_000}

	sum, err := s.Trace(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Instructions == 0 || sum.Tasks == 0 || sum.StaticInstructions == 0 {
		t.Errorf("degenerate summary %+v", sum)
	}
	if sum.AvgTaskSize() <= 0 {
		t.Error("average task size must be positive")
	}

	asm, err := s.Disassemble(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if asm == "" {
		t.Error("empty disassembly")
	}

	hist, err := s.TaskSizes(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 7 {
		t.Fatalf("histogram has %d buckets, want 7", len(hist))
	}
	total := 0
	for _, b := range hist {
		total += b.Tasks
	}
	if total == 0 {
		t.Error("histogram is empty")
	}

	wres, err := s.Window(ctx, WindowRequest{Bench: "compress", MaxInstructions: 40_000, WindowSizes: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(wres) != 1 || wres[0].WindowSize != 64 || wres[0].Misspeculations == 0 {
		t.Errorf("window result %+v", wres)
	}
	if len(wres[0].Pairs) == 0 || wres[0].Pairs[0].Load == "" {
		t.Error("window pairs must be annotated")
	}

	if _, err := s.Trace(ctx, TraceRequest{Bench: "nope"}); err == nil {
		t.Error("unknown benchmark must fail")
	}

	// WindowGrid: positional multi-benchmark analyses over one job set.
	grids, err := s.WindowGrid(ctx, []WindowRequest{
		{Bench: "compress", MaxInstructions: 40_000, WindowSizes: []int{64}},
		{Bench: "espresso", MaxInstructions: 40_000, WindowSizes: []int{32, 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 || len(grids[0]) != 1 || len(grids[1]) != 2 {
		t.Fatalf("grid shape %d/%d/%d", len(grids), len(grids[0]), len(grids[1]))
	}
	if !reflect.DeepEqual(grids[0], wres) {
		t.Error("WindowGrid result differs from the equivalent Window call")
	}
	if _, err := s.WindowGrid(ctx, []WindowRequest{{Bench: "compress"}, {Bench: "nope"}}); err == nil ||
		!strings.Contains(err.Error(), "request 1") {
		t.Errorf("grid error must carry the request index, got %v", err)
	}
}

// TestWindowSizesValidated checks that WindowGrid rejects non-positive window
// and DDC sizes with structured fields, as Validate does for a simulation's
// DDC sizes, and names the failing request of a multi-request grid.
func TestWindowSizesValidated(t *testing.T) {
	s := NewSession()
	cases := []struct {
		name   string
		req    WindowRequest
		fields []string
	}{
		{"negative window", WindowRequest{WindowSizes: []int{-1}}, []string{"window_sizes"}},
		{"zero window", WindowRequest{WindowSizes: []int{64, 0}}, []string{"window_sizes"}},
		{"negative ddc", WindowRequest{DDCSizes: []int{-5}}, []string{"ddc_sizes"}},
		{"zero ddc", WindowRequest{DDCSizes: []int{0}}, []string{"ddc_sizes"}},
		{"several at once", WindowRequest{WindowSizes: []int{-1}, DDCSizes: []int{0, 32, -5}},
			[]string{"window_sizes", "ddc_sizes", "ddc_sizes"}},
		{"with a bad workload", WindowRequest{Bench: "nope", WindowSizes: []int{0}}, []string{"window_sizes", "bench"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			if req.Bench == "" {
				req.Bench = "compress"
			}
			req.MaxInstructions = 40_000
			valid := WindowRequest{Bench: "compress", MaxInstructions: 40_000}
			for _, grid := range [][]WindowRequest{{req}, {valid, req}} {
				_, err := s.WindowGrid(context.Background(), grid)
				var verr *ValidationError
				if !errors.As(err, &verr) {
					t.Fatalf("%d-request grid: error %v, want a *ValidationError", len(grid), err)
				}
				var got []string
				for _, f := range verr.Fields {
					got = append(got, f.Field)
					if f.Field != "bench" && f.Msg != "sizes must be positive" {
						t.Errorf("%s: reason %q", f.Field, f.Msg)
					}
				}
				if !reflect.DeepEqual(got, tc.fields) {
					t.Errorf("fields = %v, want %v", got, tc.fields)
				}
				if prefixed := strings.HasPrefix(err.Error(), "request 1: "); prefixed != (len(grid) > 1) {
					t.Errorf("%d-request grid: error %q", len(grid), err)
				}
			}
		})
	}
}

// TestConcurrentRunGridReusesWorkerArenas hammers one session's RunGrid from
// many goroutines at once.  Each grid fans out over the engine's worker pool,
// where every simulate job draws its arena from the package-level sync.Pool,
// so under -race this is the regression gate for the pooled simulators: an
// arena must serve one job at a time, and every concurrent result must match
// the serial reference.
func TestConcurrentRunGridReusesWorkerArenas(t *testing.T) {
	grid := []Request{}
	for _, pol := range []Policy{PolicyAlways, PolicyNever, PolicyESync} {
		for _, stages := range []int{4, 8} {
			grid = append(grid, Request{Bench: "compress", Scale: 1, MaxInstructions: 10_000, Stages: stages, Policy: pol})
		}
	}

	ref := NewSession(WithWorkers(1))
	want, err := ref.RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(WithWorkers(4))
	const callers = 8
	results := make([][]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.RunGrid(context.Background(), grid)
		}()
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for j := range grid {
			if !reflect.DeepEqual(results[i][j], want[j]) {
				t.Errorf("caller %d, request %d: concurrent result diverged from serial reference", i, j)
			}
		}
	}
}

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// TestSessionRunReusesArenas checks that a single request reuses a pooled
// simulator arena instead of building one: after a warm-up, each distinct
// single-cell Run over a cached work item allocates its result and the
// engine's bookkeeping, far less than the ~1.1 MB of a fresh arena.  It
// measures the process-wide TotalAlloc, so it must not run in parallel.  A
// sync.Pool caches per P, and a goroutine that moves to another P between
// calls can miss the arena its previous call returned; one P keeps the
// measurement deterministic.
func TestSessionRunReusesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 512 << 10
	var reqs []Request
	for _, stages := range []int{4, 8} {
		for _, pol := range Policies() {
			reqs = append(reqs, Request{Synth: &SynthSpec{Seed: 1, Ops: 20_000}, Stages: stages, Policy: pol})
		}
	}
	s := NewSession(WithWorkers(1))
	ctx := context.Background()
	if _, err := s.Run(ctx, reqs[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for _, req := range reqs[1:] {
		runtime.ReadMemStats(&before)
		if _, err := s.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%d stages, %s: Run allocated %d KB, want under %d KB", req.Stages, req.Policy, got>>10, limit>>10)
		}
	}
}
