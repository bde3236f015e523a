// Command benchmark is memdep's end-to-end benchmark.  It builds
// memdep-bench and memdep-server from the checkout, runs one workload
// against them as child processes for a fixed measuring time, checks every
// output, and prints the end-to-end metrics named in BENCHMARK.json, one per
// line with its unit, followed by a one-line JSON result.
//
// Usage, from the repository root (the benchmark is a module of its own):
//
//	go -C benchmark run . -workload simulate-hot -seed 3
//	go -C benchmark run . -workload paper-sweep -trace 1
//	go -C benchmark run .                             # every workload in turn
//	go -C benchmark run . -workload grid-shared -out runs.jsonl
//	go -C benchmark run . compare base.jsonl change.jsonl
//
// -trace 1 is the traced run: it measures the workload as above, then
// replays the same inputs in process, times each layer's public functions
// from this package, and prints the per-layer metrics and a closure report
// in place of the end-to-end metrics.  README.md lists the metrics, the
// workloads and the comparison protocol.  Paths are relative to the
// repository root.  The benchmark is Linux-only: it reads /proc.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one workload run after the binaries are built.
const runTimeout = 170 * time.Second

// sizes are the per-run input sizes.
type sizes struct {
	setups        int // set-ups per run where one set-up serves the run
	warmPerCold   int // warm sweeps per cold sweep
	coldReqs      int // distinct requests per simulate-cold repetition
	hotReqs       int // primed requests simulate-hot cycles through
	gridWorkloads int // synthetic workloads per grid, 12 cells each
	ops           int // committed instructions per synthetic workload
	hotPasses     int // passes the traced simulate-hot replay times
}

// fullSizes keep each run's memory to a few hundred MB: the server caches
// about 4.5 MB per distinct synthetic request, with no bound.
var fullSizes = sizes{setups: 5, warmPerCold: 3, coldReqs: 64, hotReqs: 64, gridWorkloads: 16, ops: synthOps, hotPasses: 20}

// smokeSizes exercise every code path in a few seconds; TestSmoke uses them.
var smokeSizes = sizes{setups: 1, warmPerCold: 1, coldReqs: 4, hotReqs: 8, gridWorkloads: 2, ops: 2000, hotPasses: 2}

// run is one benchmark invocation's shared state.
type run struct {
	root      string // repository root
	work      string // scratch directory inside the checkout, removed at exit
	seed      uint64
	seconds   time.Duration // measuring time per workload
	procs     int
	size      sizes
	benchBin  string
	serverBin string
	sup       *supervisor
	transport *http.Transport
	client    *http.Client
	checks    checks
	speed     *speedometer
	out       io.Writer // the human-readable report
	dirs      int
}

// tempDir returns a fresh directory under the run's scratch directory.
func (r *run) tempDir(prefix string) string {
	r.dirs++
	dir := filepath.Join(r.work, fmt.Sprintf("%s-%d", prefix, r.dirs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err) // the scratch directory was created by this run
	}
	return dir
}

// checks records correctness checks; any failure fails the run.
type checks struct {
	n        int
	failures []string
}

// expect records one check.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.n++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// phase is the measured operations of one path: a deployment (direct or
// routed) or a sweep mode (cold or warm).
type phase struct {
	name  string
	lat   []float64     // milliseconds per operation (sweep, request or grid)
	first []float64     // grids only: milliseconds to the first streamed cell
	units int           // completed work units: sweeps, requests or cells
	busy  time.Duration // time spent measuring
}

// record adds a slice of operations: their latencies, the work units they
// completed and the time they took.
func (p *phase) record(lat []float64, units int, busy time.Duration) {
	p.lat = append(p.lat, lat...)
	p.units += units
	p.busy += busy
}

// add records one operation of units work units.
func (p *phase) add(d time.Duration, units int) { p.record([]float64{ms(d)}, units, d) }

// rate returns completed units per second of measuring.
func (p *phase) rate() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(p.units) / p.busy.Seconds()
}

// outcome is what measuring one workload produced.
type outcome struct {
	setup     []float64 // seconds per set-up
	primary   phase     // cold sweeps, or the standalone server
	alt       phase     // warm sweeps, or the fleet
	rss       []float64 // MB: the largest child's peak per measured repetition
	attempted int
	failed    int
	// What the traced replay re-uses: the requests of the first repetition,
	// the direct responses to them, and the direct server's engine counters
	// after it.
	reqs  [][]byte
	resps [][]byte
	statz *statz
	// layers holds per-layer numbers only the deployment shows.
	layers map[string]float64
}

func newOutcome(primary, alt string) *outcome {
	return &outcome{primary: phase{name: primary}, alt: phase{name: alt}, layers: map[string]float64{}}
}

// measured returns the time spent measuring so far.
func (o *outcome) measured() time.Duration { return o.primary.busy + o.alt.busy }

// endToEnd returns the end-to-end metrics, timings and rates scaled to the
// reference speed: timings divided by the run's scale factor (see
// speed.go), rates multiplied by it.  raw holds the timings and rates as
// measured, so a reader can see what the scaling did.
func (o *outcome) endToEnd(scale float64) (scaled, raw map[string]float64) {
	raw = map[string]float64{
		"setup_s":       median(o.setup),
		"p50_ms":        median(o.primary.lat),
		"ops_per_s":     o.primary.rate(),
		"alt_p50_ms":    median(o.alt.lat),
		"alt_ops_per_s": o.alt.rate(),
	}
	scaled = map[string]float64{
		"setup_s":       raw["setup_s"] / scale,
		"p50_ms":        raw["p50_ms"] / scale,
		"ops_per_s":     raw["ops_per_s"] * scale,
		"alt_p50_ms":    raw["alt_p50_ms"] / scale,
		"alt_ops_per_s": raw["alt_ops_per_s"] * scale,
		"peak_rss_mb":   median(o.rss),
	}
	return scaled, raw
}

// checkOutcome fails the run when an operation failed or an end-to-end
// metric is not positive.  A refused request leaves no latency sample, so
// without this a phase whose requests all fail would report a p50 of 0, a
// large improvement for a lower-is-better metric.
func checkOutcome(c *checks, list []metricSpec, values map[string]float64, o *outcome) {
	c.expect(o.failed == 0, "%d of %d operations failed", o.failed, o.attempted)
	for _, m := range list {
		v := values[m.Name]
		c.expect(v > 0, "end-to-end %s is %v; it must be positive", m.Name, v)
	}
}

// workload is one named traffic mix: how to measure it and how to replay it
// traced.
type workload struct {
	name    string
	measure func(context.Context, *run) (*outcome, error)
	replay  func(context.Context, *run, *outcome) (map[string]float64, error)
}

var workloads = []workload{
	{"paper-sweep", measureSweep, replaySweep},
	{"simulate-cold", measureCold, replayCold},
	{"simulate-hot", measureHot, replayHot},
	{"grid-shared", measureGrid, replayGrid},
}

func main() {
	// Work from the repository root, so file arguments read the same
	// whichever directory go -C left the program in.
	root, err := findRoot()
	if err == nil {
		err = os.Chdir(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(root, os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(root, os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs the selected workloads and prints their results.
func benchMain(root string, args []string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all in turn)")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", spec.RunSeconds, "measuring time per workload run; must equal BENCHMARK.json's run_seconds")
	traced := fs.Int("trace", 0, "1: also replay the inputs in process and report per-layer metrics")
	outPath := fs.String("out", "", "append each result record to this JSON-lines file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] | compare A B")
		return 2
	}
	// Runs of different lengths do not compare, so the length is fixed by
	// BENCHMARK.json; -seconds is accepted only to state it.
	if *seconds != spec.RunSeconds {
		fmt.Fprintf(stderr, "-seconds %d: every run measures BENCHMARK.json's run_seconds, %d\n", *seconds, spec.RunSeconds)
		return 2
	}
	selected := workloads
	if *name != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		selected = workloads[i : i+1]
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, w := range selected {
		cfg := runConfig{seed: *seed, seconds: float64(*seconds), trace: *traced == 1, size: fullSizes}
		rr, err := runWorkload(ctx, root, spec, w, cfg, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		res := rr.e2e
		if rr.layers != nil {
			res = rr.layers
		}
		if *outPath != "" {
			rec := record{Workload: w.name, Seed: *seed, Trace: *traced, Result: res, Raw: rr.raw}
			if err := appendRecord(*outPath, rec); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runConfig is what one workload run is asked for.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	size    sizes
}

// runResult is what one workload run produced.
type runResult struct {
	e2e    *result            // the end-to-end metrics, scaled
	layers *result            // the per-layer metrics; nil unless traced
	raw    map[string]float64 // the end-to-end timings and rates as measured
}

// runWorkload builds the binaries, measures one workload, and prints its
// report and JSON result line.  Traced, it also replays the workload and
// the line carries the per-layer metrics instead of the end-to-end ones.
func runWorkload(ctx context.Context, root string, spec *benchSpec, w workload, cfg runConfig, stdout, stderr io.Writer) (*runResult, error) {
	scratch := filepath.Join(root, ".bench_build")
	bin := filepath.Join(scratch, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	if err := buildBinaries(ctx, root, bin); err != nil {
		return nil, err
	}
	// A run killed outright cannot remove its scratch directory, which may
	// hold stores of hundreds of MB; the next run does.
	stale, err := filepath.Glob(filepath.Join(scratch, "work-*"))
	if err != nil {
		return nil, err
	}
	for _, dir := range stale {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	transport := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true}
	defer transport.CloseIdleConnections()
	r := &run{
		root:      root,
		work:      work,
		seed:      cfg.seed,
		seconds:   time.Duration(cfg.seconds * float64(time.Second)),
		procs:     procs,
		size:      cfg.size,
		benchBin:  filepath.Join(bin, "memdep-bench"),
		serverBin: filepath.Join(bin, "memdep-server"),
		sup:       newSupervisor(work, procs),
		transport: transport,
		client:    &http.Client{Transport: transport, Timeout: time.Minute},
		speed:     newSpeedometer(),
		out:       stdout,
	}
	defer r.speed.close()
	defer r.sup.stopAll()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	fmt.Fprintf(stderr, "[%s: seed %d, %gs measured, %d CPUs, trace %v]\n", w.name, cfg.seed, cfg.seconds, procs, cfg.trace)
	o, err := w.measure(ctx, r)
	if err != nil {
		return nil, err
	}
	r.sup.stopAll()
	printOutcome(stdout, w.name, o)
	fmt.Fprintf(stdout, "  machine: reference task p50 %.3f ms over %d probes, %.3f× the reference time; the metrics are scaled by %.3f\n",
		median(r.speed.times), len(r.speed.times), r.speed.slowdown(), r.speed.scale())
	values, raw := o.endToEnd(r.speed.scale())
	checkOutcome(&r.checks, spec.EndToEnd, values, o)
	rr := &runResult{raw: raw}
	if rr.e2e, err = newResult(spec.EndToEnd, values, o, &r.checks); err != nil {
		return nil, err
	}
	list, res := spec.EndToEnd, rr.e2e
	if cfg.trace {
		values, err := w.replay(ctx, r, o)
		if err != nil {
			return nil, err
		}
		if rr.layers, err = newResult(spec.PerLayer, values, o, &r.checks); err != nil {
			return nil, err
		}
		rr.e2e.Correct = rr.layers.Correct // the replay's checks count too
		list, res = spec.PerLayer, rr.layers
	}
	printResult(stdout, list, res, raw)
	fmt.Fprintf(stdout, "  %d correctness checks, %d failed\n", r.checks.n, len(r.checks.failures))
	for _, f := range r.checks.failures {
		fmt.Fprintln(stderr, "CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return rr, nil
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// buildBinaries builds memdep-bench and memdep-server from the checkout.
func buildBinaries(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/memdep-bench", "./cmd/memdep-server")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("build memdep binaries: %v\n%s", err, out)
	}
	return nil
}

// metricValue is one metric of the JSON result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult assembles the result from the metrics BENCHMARK.json lists; a
// listed metric the run did not produce is an error, not a zero.
func newResult(list []metricSpec, values map[string]float64, o *outcome, c *checks) (*result, error) {
	res := &result{
		Correct:   len(c.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// printOutcome writes the per-phase detail behind the end-to-end metrics,
// as measured (not scaled).
func printOutcome(w io.Writer, name string, o *outcome) {
	fmt.Fprintf(w, "%s: %d set-ups, median %.3fs\n", name, len(o.setup), median(o.setup))
	for _, p := range []*phase{&o.primary, &o.alt} {
		fmt.Fprintf(w, "  %-7s n=%-6d p50 %9.3f ms", p.name, len(p.lat), median(p.lat))
		if v, pct, ok := tail(p.lat); ok && pct > 50 {
			fmt.Fprintf(w, "  p%-6s %9.3f ms", strconv.FormatFloat(pct, 'g', 4, 64), v)
		} else {
			fmt.Fprintf(w, "  (too few samples for a tail percentile)")
		}
		fmt.Fprintf(w, "  %9.2f units/s over %.2fs", p.rate(), p.busy.Seconds())
		if len(p.first) > 0 {
			fmt.Fprintf(w, "  first cell p50 %.3f ms", median(p.first))
		}
		fmt.Fprintln(w)
	}
}

// printResult writes one line per metric, by name with its unit, and the
// value as measured beside each scaled one.
func printResult(w io.Writer, list []metricSpec, res *result, raw map[string]float64) {
	for _, m := range list {
		line := fmt.Sprintf("  %-32s %14.4f %-8s", m.Name, res.Metrics[m.Name].Value, m.Unit)
		if v, ok := raw[m.Name]; ok {
			line += fmt.Sprintf(" (%.4f as measured)", v)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
