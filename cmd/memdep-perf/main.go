// Command memdep-perf times the operations a simulation request is made of
// and records them as JSON, producing the BENCH_multiscalar.json tracked at
// the repo root.  With -baseline it also gates the fresh run against a
// committed file, which is the CI bench job's regression gate.
//
// The ledger table below is the one list of per-op entries: each row names
// an operation, times it as a Go benchmark (testing.Benchmark) and carries
// its allocation gate.  Every per-op entry runs at GOMAXPROCS 1 and records
// the fastest of -count repetitions, which keeps the trajectory stable on
// noisy shared hardware.  Unless -skip-sweep is given, the entries
// sweep/quick/event/jobs=N then time the full experiment suite (every
// table, figure and ablation of EXPERIMENTS.md, run side by side) on a
// fresh session, at 1 worker and at GOMAXPROCS workers; they are recorded,
// not gated.
//
// The gate holds each row's record to the baseline's: ns/op passes up to
// 2.5x the baseline, and allocs/op up to the row's relative tolerance and
// never above its absolute ceiling.  It prints one verdict line per entry
// and exits non-zero on a regression, on a zero metric, on a baseline entry
// missing from the run, on a row with no baseline record, and when nothing
// is gated.
//
// Usage:
//
//	memdep-perf                          # write BENCH_multiscalar.json
//	memdep-perf -out /tmp/bench.json -baseline BENCH_multiscalar.json
//	memdep-perf -skip-sweep              # per-op entries only (fast)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"memdep/cmd/internal/storeflag"
	"memdep/internal/engine"
	"memdep/internal/fleet"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/program"
	"memdep/internal/store"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
	"memdep/sim"
)

// record is one benchmark result.  Per-op entries fill the per-op fields;
// sweep timings fill Seconds.
type record struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations,omitempty"`
	NsPerOp       int64   `json:"ns_per_op,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp    int64   `json:"bytes_per_op,omitempty"`
	AllocsPerTask float64 `json:"allocs_per_task,omitempty"`
	Seconds       float64 `json:"seconds,omitempty"`
}

// report is the file: MaxProcs is the host's GOMAXPROCS, the sweep's
// largest worker count.
type report struct {
	Go         string   `json:"go"`
	MaxProcs   int      `json:"maxprocs"`
	Benchmarks []record `json:"benchmarks"`
}

// entry is one row of the ledger: an operation and its allocation gate.
type entry struct {
	name string
	op   func(*inputs) error
	// perTask also records allocations per task of the simulated work item.
	perTask bool
	// allocTolerance is the fractional allocs/op rise over the baseline
	// that passes; allocCeiling bounds allocs/op however the baseline
	// drifts.
	allocTolerance float64
	allocCeiling   int64
}

// ledger is the one list of per-op entries, in the order they run and are
// recorded.  Allocation counts are deterministic where wall-clock time is
// not, so each row's allocation gate is the tight, portable signal.
var ledger = []entry{
	// The timing core: one uncached simulation (xlisp stand-in, 50k
	// instructions, 8 stages, ESYNC) per predictor organization -- the
	// paper's fully associative MDPT, a 4-way set-associative one and store
	// sets -- whose placement and replacement change which loads wait and
	// so the cost of the whole run.  The ceiling pins the arena-reuse
	// floor.
	{name: "simulate/event", op: simulate(sim.TableFullAssoc), perTask: true, allocTolerance: 0.05, allocCeiling: 150},
	{name: "simulate/event/setassoc", op: simulate(sim.TableSetAssoc), perTask: true, allocTolerance: 0.05, allocCeiling: 150},
	{name: "simulate/event/storeset", op: simulate(sim.TableStoreSet), perTask: true, allocTolerance: 0.05, allocCeiling: 150},
	// One Preprocess (functional pass plus work-item build) of the 20,000-op
	// synthetic program the simulate-cold benchmark requests, and of the
	// xlisp stand-in at 50k instructions.  The ceiling keeps it from sliding
	// back to per-task allocation (~4,300 allocs/op on the synthetic
	// program).  The relative tolerance is loose because the build scratch
	// is pooled: a GC that empties the pool mid-benchmark moves a
	// ~9 allocs/op average by one.
	{name: "preprocess/synth20k", op: func(in *inputs) error {
		return errOf(multiscalar.Preprocess(in.synth20k, trace.Config{}))
	}, allocTolerance: 0.5, allocCeiling: 64},
	{name: "preprocess/xlisp", op: func(in *inputs) error {
		return errOf(multiscalar.Preprocess(in.xlisp, trace.Config{MaxInstructions: 50_000}))
	}, allocTolerance: 0.5, allocCeiling: 64},
	// The functional pass alone over the 20,000-op synthetic program.  It
	// fills one reused record per instruction, so it allocates the machine,
	// its task-entry table and its memory pages, the same in every run.
	{name: "trace/run", op: func(in *inputs) error {
		return errOf(trace.Run(in.synth20k, trace.Config{}, nil))
	}, allocTolerance: 0.05, allocCeiling: 6},
	// The store codec of the synthetic work item.  A load or store names
	// its previous same-address access, so a decode needs no address map:
	// it allocates the item, its name, its instructions and its tasks.
	{name: "workitem/encode", op: func(in *inputs) error {
		multiscalar.AppendWorkItem(nil, in.synthItem)
		return nil
	}, allocTolerance: 0.05, allocCeiling: 4},
	{name: "workitem/decode", op: func(in *inputs) error {
		return errOf(multiscalar.DecodeWorkItem(in.encoded))
	}, allocTolerance: 0.05, allocCeiling: 4},
	// The store codec of the ESYNC xlisp simulation's result, mis-speculated
	// pairs included: every cold simulation encodes one, and every warm read
	// decodes one.
	{name: "result/encode", op: func(in *inputs) error {
		return errOf(in.resultCodec.Encode(in.result))
	}, allocTolerance: 0.05, allocCeiling: 5},
	{name: "result/decode", op: func(in *inputs) error {
		return errOf(in.resultCodec.Decode(in.encodedResult))
	}, allocTolerance: 0.05, allocCeiling: 8},
	// One store hit of that result, as a warm run reads it: the object's
	// path, its read, the envelope check and the decode.  The object was
	// written moments before, so the hit rewrites no timestamp.
	{name: "store/load", op: func(in *inputs) error {
		if _, ok := in.store.Load(in.job.JobKind(), in.resultKey); !ok {
			return errors.New("the persisted result read as a miss")
		}
		return nil
	}, allocTolerance: 0.05, allocCeiling: 12},
	// The engine key of the ESYNC xlisp simulation above, which every
	// request computes, cache hits included.  Going back to a dump of the
	// whole configuration (about 6x the ns/op) trips the time check too.
	{name: "engine/key/simulate", op: func(in *inputs) error {
		engine.Key(in.job)
		return nil
	}, allocTolerance: 0.05, allocCeiling: 7},
	// One window analysis (Tables 3-5) at the default window and DDC sizes
	// over the preprocessed xlisp work item.
	{name: "window/analyze", op: func(in *inputs) error {
		window.Analyze(in.xlispItem, window.Config{})
		return nil
	}, allocTolerance: 0.05, allocCeiling: 151},
	// One build of a named benchmark's synthetic program, 126.gcc at scale 1.
	{name: "workload/build", op: func(in *inputs) error {
		in.buildGCC(1)
		return nil
	}, allocTolerance: 0.05, allocCeiling: 90},
	// One routing decision of a two-worker coordinator: the owner of the
	// canonical JSON of a 20,000-op synthetic simulate-cold request.  The
	// rendezvous walk over the registry's workers allocates nothing.
	{name: "fleet/route", op: func(in *inputs) error {
		return errOf(in.registry.Route(in.routeKey, nil))
	}, allocTolerance: 0.05, allocCeiling: 0},
}

// inputs holds what the ledger's operations read, built once by newInputs
// outside every timer.
type inputs struct {
	ctx context.Context
	// sims holds one prepared simulation per predictor organization, all
	// over the same xlisp work item, whose task count is tasks.
	sims      map[sim.TableKind]*sim.Prepared
	tasks     int
	synth20k  *program.Program
	xlisp     *program.Program
	synthItem *multiscalar.WorkItem
	xlispItem *multiscalar.WorkItem
	encoded   []byte
	job       multiscalar.SimulateJob
	buildGCC  func(scale int) *program.Program
	// result is job's result, which resultCodec persists as encodedResult.
	result        any
	resultCodec   store.Codec
	encodedResult []byte
	// store is a temporary store under storeDir holding result under
	// resultKey, job's cache key.
	store     *store.Store
	storeDir  string
	resultKey string
	// registry holds the workers w1 and w2; routeKey is the request it
	// routes.
	registry *fleet.Registry
	routeKey string
}

// newInputs builds the ledger's inputs.  The simulations are prepared on
// session, whose result cache Execute bypasses, so every timed run
// simulates from scratch.
func newInputs(ctx context.Context, session *sim.Session) (*inputs, error) {
	in := &inputs{
		ctx:      ctx,
		sims:     make(map[sim.TableKind]*sim.Prepared),
		synth20k: synth.Spec{Ops: 20_000}.Build(1),
		xlisp:    workload.MustGet("xlisp").Build(1),
		job: multiscalar.SimulateJob{
			Item: multiscalar.PreprocessJob{
				Program: workload.BuildJob{Name: "xlisp", Scale: 1},
				Trace:   trace.Config{MaxInstructions: 50_000},
			},
			Config: multiscalar.DefaultConfig(8, policy.ESync),
		},
		buildGCC: workload.MustGet("126.gcc").Build,
		registry: fleet.NewRegistry(fleet.RegistryConfig{}),
		routeKey: sim.Request{Synth: &sim.SynthSpec{Seed: 1, Ops: 20_000}, Stages: 4, Policy: sim.PolicyESync}.CanonicalJSON(),
	}
	for _, name := range []string{"w1", "w2"} {
		if err := in.registry.Register(name, "http://"+name+":8080"); err != nil {
			return nil, err
		}
	}
	for _, table := range []sim.TableKind{sim.TableFullAssoc, sim.TableSetAssoc, sim.TableStoreSet} {
		req := sim.Request{Bench: "xlisp", Scale: 1, MaxInstructions: 50_000, Stages: 8, Policy: sim.PolicyESync}
		if table != sim.TableFullAssoc {
			req.Predictor, req.MDPTWays = table, 4
		}
		p, err := session.Prepare(ctx, req)
		if err != nil {
			return nil, err
		}
		in.sims[table], in.tasks = p, p.Tasks()
	}
	var err error
	if in.synthItem, err = multiscalar.Preprocess(in.synth20k, trace.Config{}); err != nil {
		return nil, err
	}
	if in.xlispItem, err = multiscalar.Preprocess(in.xlisp, trace.Config{MaxInstructions: 50_000}); err != nil {
		return nil, err
	}
	in.encoded = multiscalar.AppendWorkItem(nil, in.synthItem)
	if in.result, err = multiscalar.SimulateContext(ctx, in.xlispItem, in.job.Config); err != nil {
		return nil, err
	}
	for _, c := range store.DefaultCodecs() {
		if c.Kind() == in.job.JobKind() {
			in.resultCodec = c
		}
	}
	if in.encodedResult, err = in.resultCodec.Encode(in.result); err != nil {
		return nil, err
	}
	if in.storeDir, err = os.MkdirTemp("", "memdep-perf-store-"); err != nil {
		return nil, err
	}
	in.store, in.resultKey = store.Open(in.storeDir, in.resultCodec), in.job.CacheKey()
	in.store.Save(in.job.JobKind(), in.resultKey, in.result)
	if in.store.Counters().Writes != 1 {
		os.RemoveAll(in.storeDir)
		return nil, fmt.Errorf("memdep-perf: could not persist the result into %s", in.storeDir)
	}
	return in, nil
}

// simulate returns the operation that executes the simulation of the given
// predictor organization once.
func simulate(table sim.TableKind) func(*inputs) error {
	return func(in *inputs) error { return errOf(in.sims[table].Execute(in.ctx)) }
}

// errOf drops an operation's result, keeping its error.
func errOf[T any](_ T, err error) error { return err }

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("memdep-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_multiscalar.json", "output file")
	baseline := fs.String("baseline", "", "committed benchmark file to gate the run against (\"\" = record only)")
	count := fs.Int("count", 3, "benchmark repetitions per entry; the fastest is recorded")
	skipSweep := fs.Bool("skip-sweep", false, "skip the experiment-suite sweep timings")
	storeFlags := storeflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var base *report
	if *baseline != "" {
		var err error
		if base, err = load(*baseline); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	ctx := context.Background()
	rep := report{Go: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0)}
	// A -store directory only speeds the one-time Prepare; the timed runs
	// stay uncached.
	perOp, err := measure(ctx, sim.NewSession(storeFlags.Options()...), *count, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep.Benchmarks = perOp

	if !*skipSweep {
		jobCounts := []int{1}
		if rep.MaxProcs > 1 {
			jobCounts = append(jobCounts, rep.MaxProcs)
		}
		for _, jobs := range jobCounts {
			secs, err := timeSweep(ctx, jobs, sim.SuiteOptions{Quick: true})
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			name := fmt.Sprintf("sweep/quick/event/jobs=%d", jobs)
			rep.Benchmarks = append(rep.Benchmarks, record{Name: name, Seconds: secs})
			fmt.Fprintf(stderr, "[%s: %.2fs]\n", name, secs)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "[wrote %s]\n", *out)

	if base != nil {
		if err := gate(ledger, perOp, base.Benchmarks, stderr); err != nil {
			fmt.Fprintf(stderr, "%v against %s\n", err, *baseline)
			return 1
		}
	}
	return 0
}

// measure times every row of the ledger and returns one record per row, in
// ledger order.
func measure(ctx context.Context, session *sim.Session, count int, stderr io.Writer) ([]record, error) {
	// The baseline is recorded at GOMAXPROCS 1, and so is every run: with a
	// second P the collector and the scheduler work beside the timed loop,
	// and ns/op follows the host's load.  Over 12 runs each on a 2-vCPU
	// container, the codec's encode read 1.08-1.72x its baseline at the
	// default GOMAXPROCS and 1.03-1.54x at 1, with the same allocations.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in, err := newInputs(ctx, session)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.storeDir)
	recs := make([]record, 0, len(ledger))
	for _, row := range ledger {
		res, err := fastest(count, func() error { return row.op(in) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.name, err)
		}
		rec := record{
			Name:        row.name,
			Iterations:  res.N,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if row.perTask {
			rec.AllocsPerTask = float64(rec.AllocsPerOp) / float64(in.tasks)
		}
		recs = append(recs, rec)
		fmt.Fprintf(stderr, "[%s: %d ns/op, %d allocs/op, %d B/op]\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	}
	return recs, nil
}

// fastest runs f as a Go benchmark count times and returns the fastest
// result.
func fastest(count int, f func() error) (testing.BenchmarkResult, error) {
	var res testing.BenchmarkResult
	var ferr error
	for try := 0; try < count && ferr == nil; try++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					ferr = err
					return
				}
			}
		})
		if try == 0 || r.NsPerOp() < res.NsPerOp() {
			res = r
		}
	}
	return res, ferr
}

// timeSweep runs every registered experiment once, side by side, on a fresh
// session (cold cache) and returns the wall-clock seconds.
func timeSweep(ctx context.Context, jobs int, opts sim.SuiteOptions) (float64, error) {
	session := sim.NewSession(sim.WithWorkers(jobs))
	var ids []string
	for _, e := range sim.Experiments() {
		ids = append(ids, e.ID)
	}
	start := time.Now()
	if err := session.RunExperiments(ctx, ids, opts, func(sim.Experiment, *sim.Table) {}); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// load reads and decodes one benchmark file.
func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("memdep-perf: %w", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("memdep-perf: %s: %w", path, err)
	}
	return &rep, nil
}

// timeTolerance is the fractional ns/op rise over the baseline that passes
// (2.5x the baseline).  Hosted runners are shared hardware that can run well
// slower than the machine that recorded the baseline, so only
// order-of-magnitude blowups trip it.
const timeTolerance = 1.5

// gate holds each row's run record (run[i] measures rows[i]) to its
// baseline record, writes one verdict line per entry to w, and returns an
// error when a check fails or when no row has a baseline record.  A per-op
// baseline record that no row names fails too: the ledger stopped running
// it.  Sweep records (Seconds only) are not gated.
func gate(rows []entry, run, base []record, w io.Writer) error {
	failures := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
		failures++
	}
	unmatched := make(map[string]record, len(base))
	for _, b := range base {
		unmatched[b.Name] = b
	}
	gated := 0
	for i, row := range rows {
		b, ok := unmatched[row.name]
		if !ok {
			fail("%s: no baseline record", row.name)
			continue
		}
		delete(unmatched, row.name)
		gated++
		c, failed := run[i], failures
		if bad := exceeds(b.NsPerOp, c.NsPerOp, timeTolerance); bad != "" {
			fail("%s: ns/op %s", row.name, bad)
		}
		if bad := exceeds(b.AllocsPerOp, c.AllocsPerOp, row.allocTolerance); bad != "" {
			fail("%s: allocs/op %s", row.name, bad)
		}
		if c.AllocsPerOp > row.allocCeiling {
			fail("%s: allocs/op %d exceeds the absolute ceiling of %d", row.name, c.AllocsPerOp, row.allocCeiling)
		}
		if failures == failed {
			fmt.Fprintf(w, "ok   %s: ns/op %d -> %d (%+.1f%%), allocs/op %d -> %d (ceiling %d), B/op %d -> %d\n",
				row.name, b.NsPerOp, c.NsPerOp, delta(b.NsPerOp, c.NsPerOp)*100,
				b.AllocsPerOp, c.AllocsPerOp, row.allocCeiling, b.BytesPerOp, c.BytesPerOp)
		}
	}
	for _, b := range base {
		if _, left := unmatched[b.Name]; left && b.Seconds == 0 {
			fail("%s: present in baseline, missing from the run", b.Name)
		}
	}
	switch {
	case gated == 0:
		return errors.New("memdep-perf: no ledger entry has a baseline record; the gate would vacuously pass")
	case failures > 0:
		return fmt.Errorf("memdep-perf: %d check(s) failed", failures)
	}
	fmt.Fprintf(w, "memdep-perf: ok (%d entries gated)\n", gated)
	return nil
}

// delta returns the fractional change from base to cand.
func delta(base, cand int64) float64 {
	if base <= 0 {
		return 0
	}
	return float64(cand-base) / float64(base)
}

// exceeds reports a non-empty description when cand regresses past the
// tolerance relative to base.  A base of 0 gates nothing (the metric was not
// recorded); a candidate of 0 against a live baseline fails.  Improvements
// never fail.
func exceeds(base, cand int64, tol float64) string {
	if base <= 0 {
		return ""
	}
	if cand <= 0 {
		return fmt.Sprintf("%d -> %d (metric missing from the run)", base, cand)
	}
	if d := delta(base, cand); d > tol {
		return fmt.Sprintf("%d -> %d (%+.1f%%, tolerance +%.0f%%)", base, cand, d*100, tol*100)
	}
	return ""
}
