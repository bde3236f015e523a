package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"memdep/internal/engine"
	"memdep/internal/experiments"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/program"
	"memdep/internal/store"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/window"
	suite "memdep/internal/workload" // the paper benchmark suite
	"memdep/sim"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedLayers are the layers whose calls and self time every traced run
// reports; a layer a workload does not cross reports zero.
var timedLayers = []string{
	"multiscalar.simulate", "multiscalar.preprocess", "trace.run", "window.analyze",
	"workload.build", "synth.build", "store.load", "store.save",
}

// layerMetrics returns every per-layer metric the traced run produces, at
// zero.
func layerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, l := range timedLayers {
		m[l+".calls"], m[l+".self_ms"] = 0, 0
	}
	for _, k := range []string{
		"multiscalar.simulate.ns_per_cycle", "trace.run.ns_per_inst",
		"store.load.hits", "store.load.mb", "store.save.mb",
		"engine.executed", "engine.hits", "engine.hit_ratio", "engine.cached_jobs",
		"sim.run_warm_us", "sim.encode_us", "sim.result_bytes",
		"server.decode_us", "server.residual_us", "server.rss_kb_per_request",
		"fleet.hop_us", "fleet.executed_over_direct", "fleet.max_worker_share", "fleet.routed_over_direct",
		"closure.explained_share",
	} {
		m[k] = 0
	}
	return m
}

// merge adds src's layer totals into dst.
func merge(dst, src map[string]*layerTotals) {
	for name, l := range src { //lint:deterministic each layer sums into its own entry
		d := dst[name]
		if d == nil {
			d = &layerTotals{}
			dst[name] = d
		}
		d.calls += l.calls
		d.hits += l.hits
		d.self += l.self
		d.work += l.work
		d.bytes += l.bytes
	}
}

// setLayers records per-layer totals as metrics.
func setLayers(m map[string]float64, ts map[string]*layerTotals) {
	for name, l := range ts { //lint:deterministic each layer writes its own keys
		m[name+".calls"] = float64(l.calls)
		m[name+".self_ms"] = ms(l.self)
		switch {
		case name == "multiscalar.simulate" && l.work > 0:
			m["multiscalar.simulate.ns_per_cycle"] = float64(l.self.Nanoseconds()) / l.work
		case name == "trace.run" && l.work > 0:
			m["trace.run.ns_per_inst"] = float64(l.self.Nanoseconds()) / l.work
		case name == "store.load":
			m["store.load.hits"] = float64(l.hits)
			m["store.load.mb"] = float64(l.bytes) / 1e6
		case name == "store.save":
			m["store.save.mb"] = float64(l.bytes) / 1e6
		}
	}
}

// selfMs returns a layer's total self time in ms (0 if it has no spans).
func selfMs(ts map[string]*layerTotals, layer string) float64 {
	if l := ts[layer]; l != nil {
		return ms(l.self)
	}
	return 0
}

// addEngine records a session's or engine's job counters.
func addEngine(m map[string]float64, executed, hits uint64, cached int) {
	m["engine.executed"] = float64(executed)
	m["engine.hits"] = float64(hits)
	m["engine.hit_ratio"] = float64(hits) / float64(hits+executed)
	m["engine.cached_jobs"] = float64(cached)
}

// --- paper-sweep -------------------------------------------------------------

// replaySweep runs every experiment in process on engine.New(procs) with
// the six layer simulators and the store tier wrapped in tracing
// decorators, cold and then warm, each after the same sweep untraced; the
// difference is the tracing overhead.
func replaySweep(ctx context.Context, r *run, o *outcome) (map[string]float64, error) {
	want, err := os.ReadFile(filepath.Join(r.root, "EXPERIMENTS.md"))
	if err != nil {
		return nil, err
	}
	m := layerMetrics()
	t := newTracer()
	stores := [2]string{r.tempDir("store"), r.tempDir("store")} // untraced, traced
	var wall [2][2]time.Duration                                // [cold, warm][untraced, traced]
	var busy [2]time.Duration                                   // traced layer self time, summed
	all := map[string]*layerTotals{}
	for ph := 0; ph < 2; ph++ {
		for traced := 0; traced < 2; traced++ {
			tt := t
			if traced == 0 {
				tt = nil
			}
			w, eng, err := r.sweepInProcess(ctx, stores[traced], tt, want)
			if err != nil {
				return nil, err
			}
			wall[ph][traced] = w
			if traced == 0 {
				continue
			}
			spans := t.take()
			ts := totals(spans)
			merge(all, ts)
			for _, l := range ts { //lint:deterministic summing durations
				busy[ph] += l.self
			}
			if ph == 0 {
				addEngine(m, eng.Executed(), eng.Hits(), eng.CacheLen())
				// The functional trace runs inside preprocess and window
				// analysis; time it alone over every preprocessed program.
				comp, err := traceComponent(ctx, eng, spans)
				if err != nil {
					return nil, err
				}
				merge(all, comp)
			}
		}
	}
	setLayers(m, all)
	// Layer self time can cover at most every worker for the whole traced
	// sweep; a job waiting on a dependency another worker is computing
	// counts that wait as its own self time.
	fmt.Fprintf(r.out, "closure (paper-sweep, %d engine workers):\n", r.procs)
	for ph, p := range []*phase{&o.primary, &o.alt} {
		plain, traced := ms(wall[ph][0]), ms(wall[ph][1])
		share := ms(busy[ph]) / (float64(r.procs) * traced)
		if ph == 0 {
			m["closure.explained_share"] = share
		}
		fmt.Fprintf(r.out, "  %s: CLI p50 %.1f ms, in process %.1f ms untraced, %.1f ms traced (tracing overhead %+.1f ms, %+.1f%%); layer self time %.1f ms explains %.1f%% of %d workers × the traced sweep%s\n",
			p.name, median(p.lat), plain, traced, traced-plain, 100*(traced/plain-1), ms(busy[ph]), 100*share, r.procs, finding(share))
	}
	return m, nil
}

// finding flags a closure residual over 10%: a recorded finding, not a
// failure.
func finding(share float64) string {
	if share < 0.9 || share > 1.1 {
		return " (residual over 10%: finding)"
	}
	return ""
}

// sweepInProcess runs every experiment of memdep-bench -quick through
// experiments.NewRunnerWithEngine on a fresh engine over the store at dir,
// traced when t is set, and checks the tables against EXPERIMENTS.md.
func (r *run) sweepInProcess(ctx context.Context, dir string, t *tracer, want []byte) (time.Duration, *engine.Engine, error) {
	sims := []engine.Simulator{
		suite.BuildSimulator(),
		synth.BuildSimulator(),
		trace.RunSimulator(),
		window.AnalyzeSimulator(),
		multiscalar.PreprocessSimulator(),
		multiscalar.SimulateSimulator(),
	}
	var tier engine.Tier = store.Open(dir, store.DefaultCodecs()...)
	if t != nil {
		for i, s := range sims {
			sims[i] = tracedSim{inner: s, t: t}
		}
		tier = tracedTier{inner: tier, t: t}
	}
	eng := engine.New(r.procs)
	eng.Register(sims...)
	eng.SetTier(tier)
	runner := experiments.NewRunnerWithEngine(experiments.Quick(), eng)
	var md strings.Builder
	runtime.GC() // the previous sweep's garbage is not this one's cost
	start := time.Now()
	for _, e := range experiments.All() {
		tab, err := e.Run(runner, ctx)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(&md, "## %s — %s\n\n```\n%s```\n\n", e.ID, e.Description, tab.Render())
	}
	wall := time.Since(start)
	r.checks.expect(bytes.HasSuffix(want, []byte(md.String())), "in-process sweep (traced %v) tables differ from EXPERIMENTS.md", t != nil)
	return wall, eng, nil
}

// traceComponent times trace.Run alone over the program of every work item
// the traced cold sweep preprocessed.
func traceComponent(ctx context.Context, eng *engine.Engine, spans []span) (map[string]*layerTotals, error) {
	comp := newTracer()
	for _, s := range spans {
		if s.layer != "multiscalar.preprocess" {
			continue
		}
		job := s.spec.(multiscalar.PreprocessJob)
		prog, err := engine.Resolve[*program.Program](ctx, eng, job.Program)
		if err != nil {
			return nil, err
		}
		if _, err := comp.timed("trace.run", func() (float64, error) {
			st, err := trace.Run(prog, job.Trace, nil)
			return float64(st.Instructions), err
		}); err != nil {
			return nil, err
		}
	}
	return totals(comp.take()), nil
}

// --- request replays ---------------------------------------------------------

// decodeRequest decodes a simulate body the way memdep-server does.
func decodeRequest(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeIndented encodes a result the way memdep-server writes it.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// cyclesOf reads the simulated cycles of a result document.
func cyclesOf(doc []byte) int64 {
	var res struct {
		Cycles int64 `json:"cycles"`
	}
	if json.Unmarshal(doc, &res) != nil {
		return -1
	}
	return res.Cycles
}

// layerReplay runs requests straight through the layers' public functions,
// recording a span per call, as a server computing them cold would: build,
// preprocess once per workload (the functional trace is also timed alone,
// as a component of preprocess), simulate on a reused arena, and -- with a
// store -- a load before and a save after each persisted job.
type layerReplay struct {
	t     *tracer
	tier  engine.Tier // nil: no store
	arena *multiscalar.Simulator
	items map[string]preprocessed
}

// preprocessed is one workload's work item and the job that built it.
type preprocessed struct {
	item *multiscalar.WorkItem
	job  multiscalar.PreprocessJob
}

func newLayerReplay(t *tracer, tier engine.Tier) *layerReplay {
	return &layerReplay{t: t, tier: tier, arena: multiscalar.NewSimulator(), items: map[string]preprocessed{}}
}

// run replays one request and returns its simulated cycles and the time
// spent in the layers a server pays for it.
func (lr *layerReplay) run(ctx context.Context, req sim.Request) (int64, time.Duration, error) {
	n := req.Normalize()
	cfg, err := internalConfig(n)
	if err != nil {
		return 0, 0, err
	}
	var path time.Duration
	storeCall := func(f func()) {
		if lr.tier != nil {
			start := time.Now()
			f()
			path += time.Since(start)
		}
	}
	key := fmt.Sprintf("%s@%d|%d", n.Workload().CanonicalJSON(), n.Scale, n.MaxInstructions)
	pre, ok := lr.items[key]
	simJob := func() multiscalar.SimulateJob { return multiscalar.SimulateJob{Item: pre.job, Config: cfg} }
	if !ok {
		tc := trace.Config{MaxInstructions: n.MaxInstructions}
		var build engine.Spec
		var makeProg func() *program.Program
		layer := "synth.build"
		if n.Synth != nil {
			sp := internalSynth(n.Synth)
			build = synth.BuildJob{Spec: sp, Scale: n.Scale}
			makeProg = func() *program.Program { return sp.Build(n.Scale) }
		} else {
			w, err := suite.Get(n.Bench)
			if err != nil {
				return 0, 0, err
			}
			build = suite.BuildJob{Name: n.Bench, Scale: n.Scale}
			layer = "workload.build"
			makeProg = func() *program.Program { return w.Build(n.Scale) }
		}
		pre.job = multiscalar.PreprocessJob{Program: build, Trace: tc}
		storeCall(func() {
			lr.tier.Load(multiscalar.SimulateKind, simJob().CacheKey())
			lr.tier.Load(multiscalar.PreprocessKind, pre.job.CacheKey())
			lr.tier.Load(build.JobKind(), build.CacheKey())
		})
		var prog *program.Program
		d, _ := lr.t.timed(layer, func() (float64, error) { prog = makeProg(); return 0, nil })
		path += d
		storeCall(func() { lr.tier.Save(build.JobKind(), build.CacheKey(), prog) })
		if _, err := lr.t.timed("trace.run", func() (float64, error) {
			st, err := trace.Run(prog, tc, nil)
			return float64(st.Instructions), err
		}); err != nil {
			return 0, 0, err
		}
		d, err := lr.t.timed("multiscalar.preprocess", func() (float64, error) {
			var err error
			pre.item, err = multiscalar.Preprocess(prog, tc)
			return 0, err
		})
		if err != nil {
			return 0, 0, err
		}
		path += d
		storeCall(func() { lr.tier.Save(multiscalar.PreprocessKind, pre.job.CacheKey(), pre.item) })
		lr.items[key] = pre
	} else {
		storeCall(func() { lr.tier.Load(multiscalar.SimulateKind, simJob().CacheKey()) })
	}
	var res multiscalar.Result
	d, err := lr.t.timed("multiscalar.simulate", func() (float64, error) {
		var err error
		res, err = lr.arena.Simulate(ctx, pre.item, cfg)
		return float64(res.Cycles), err
	})
	if err != nil {
		return 0, 0, err
	}
	path += d
	storeCall(func() { lr.tier.Save(multiscalar.SimulateKind, simJob().CacheKey(), res) })
	return res.Cycles, path, nil
}

// internalConfig assembles the timing configuration of a normalized
// request, as the sim facade does.
func internalConfig(n sim.Request) (multiscalar.Config, error) {
	pol, err := policy.Parse(string(n.Policy))
	if err != nil {
		return multiscalar.Config{}, err
	}
	table, err := memdep.ParseTableKind(string(n.Predictor))
	if err != nil {
		return multiscalar.Config{}, err
	}
	core, err := multiscalar.ParseCoreMode(string(n.Core))
	if err != nil {
		return multiscalar.Config{}, err
	}
	cfg := multiscalar.DefaultConfig(n.Stages, pol)
	cfg.MemDep.Entries = n.MDPTEntries
	cfg.MemDep.Table = table
	cfg.MemDep.Ways = n.MDPTWays
	cfg.Core = core
	cfg.DDCSizes = n.DDCSizes
	return cfg, nil
}

// internalSynth converts a public synthetic spec to the generator's.
func internalSynth(s *sim.SynthSpec) synth.Spec {
	sp := synth.Spec{
		Name: s.Name, Seed: s.Seed, Ops: s.Ops, Body: s.Body,
		TaskSize: s.TaskSize, TaskSpread: s.TaskSpread,
		LoadFrac: s.LoadFrac, StoreFrac: s.StoreFrac, DepFrac: s.DepFrac,
		AliasSetSize: s.AliasSetSize, LoopCarried: s.LoopCarried,
	}
	for _, b := range s.DepDists {
		sp.DepDists = append(sp.DepDists, synth.DistBucket{Dist: b.Dist, Weight: b.Weight})
	}
	return sp
}

// checkEngine checks an in-process session ran the same jobs as the server
// that answered the same requests.
func (r *run) checkEngine(what string, st sim.Stats, server *statz) {
	r.checks.expect(st.Executed == server.Stats.Executed && st.Hits == server.Stats.Hits && st.CachedJobs == server.Stats.CachedJobs,
		"%s: in-process engine ran %d jobs (%d hits, %d cached), the server %d (%d hits, %d cached)",
		what, st.Executed, st.Hits, st.CachedJobs, server.Stats.Executed, server.Stats.Hits, server.Stats.CachedJobs)
}

// requestClosure writes the per-request closure: how much of the direct p50
// the median per-request layer time explains, layer by layer.
func (r *run) requestClosure(m map[string]float64, name string, o *outcome, path []float64, parts map[string]float64) {
	p50 := median(o.primary.lat) * 1000
	explained := median(path)
	m["closure.explained_share"] = explained / p50
	m["server.residual_us"] = p50 - explained
	m["fleet.hop_us"] = (median(o.alt.lat) - median(o.primary.lat)) * 1000
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(parts)) {
		fmt.Fprintf(&b, " %s %.1f", k, parts[k])
	}
	fmt.Fprintf(r.out, "closure (%s): direct p50 %.1f us; layers per request (median) %.1f us = %.1f%% [us:%s]; residual %.1f us%s; routed hop %.1f us\n",
		name, p50, explained, 100*explained/p50, b.String(), p50-explained, finding(explained/p50), m["fleet.hop_us"])
}

// --- simulate-cold -----------------------------------------------------------

// replayCold decodes each cold request, replays it through the layers with
// a fresh store (loads that miss, saves behind), runs it through
// sim.Session.Run and encodes the result; a second pass over the warm
// session times Session.Run on a repeat.
func replayCold(ctx context.Context, r *run, o *outcome) (map[string]float64, error) {
	m := layerMetrics()
	t := newTracer()
	lr := newLayerReplay(t, tracedTier{inner: store.Open(r.tempDir("store"), store.DefaultCodecs()...), t: t})
	sess := sim.NewSession(sim.WithWorkers(r.procs))
	var path, decode, encode, size []float64
	for i, body := range o.reqs {
		start := time.Now()
		var req sim.Request
		if err := decodeRequest(body, &req); err != nil {
			return nil, err
		}
		dec := time.Since(start)
		cycles, layers, err := lr.run(ctx, req)
		if err != nil {
			return nil, err
		}
		r.checks.expect(cycles == cyclesOf(o.resps[i]), "simulate-cold request %d: replayed %d cycles, the server %d", i, cycles, cyclesOf(o.resps[i]))
		res, err := sess.Run(ctx, req)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		doc, err := encodeIndented(res)
		if err != nil {
			return nil, err
		}
		enc := time.Since(start)
		decode, encode, size = append(decode, us(dec)), append(encode, us(enc)), append(size, float64(len(doc)))
		path = append(path, us(dec+layers+enc))
	}
	st := sess.Stats()
	r.checkEngine("simulate-cold", st, o.statz)
	addEngine(m, st.Executed, st.Hits, st.CachedJobs)
	var warm []float64
	for _, body := range o.reqs {
		var req sim.Request
		if err := decodeRequest(body, &req); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := sess.Run(ctx, req); err != nil {
			return nil, err
		}
		warm = append(warm, us(time.Since(start)))
	}
	ts := totals(t.take())
	setLayers(m, ts)
	parts := map[string]float64{"decode": median(decode), "encode": median(encode)}
	for _, l := range []string{"synth.build", "multiscalar.preprocess", "multiscalar.simulate", "store.load", "store.save"} {
		parts[l] = 1000 * selfMs(ts, l) / float64(len(o.reqs))
	}
	m["sim.run_warm_us"], m["sim.encode_us"], m["sim.result_bytes"], m["server.decode_us"] = median(warm), median(encode), median(size), median(decode)
	r.requestClosure(m, "simulate-cold", o, path, parts)
	maps.Copy(m, o.layers)
	return m, nil
}

// --- simulate-hot ------------------------------------------------------------

// replayHot primes an in-process session with the hot requests (replaying
// each through the layers to check its cycles), then times the path a hot
// request takes: decode, sim.Session.Run on a hit, indented encode.
func replayHot(ctx context.Context, r *run, o *outcome) (map[string]float64, error) {
	m := layerMetrics()
	t := newTracer()
	lr := newLayerReplay(t, nil)
	sess := sim.NewSession(sim.WithWorkers(r.procs))
	reqs := make([]sim.Request, len(o.reqs))
	for i, body := range o.reqs {
		if err := decodeRequest(body, &reqs[i]); err != nil {
			return nil, err
		}
		cycles, _, err := lr.run(ctx, reqs[i])
		if err != nil {
			return nil, err
		}
		r.checks.expect(cycles == cyclesOf(o.resps[i]), "simulate-hot request %d: replayed %d cycles, the server %d", i, cycles, cyclesOf(o.resps[i]))
		if _, err := sess.Run(ctx, reqs[i]); err != nil {
			return nil, err
		}
	}
	setLayers(m, totals(t.take()))
	var path, decode, run, encode, size []float64
	for p := 0; p < r.size.hotPasses; p++ {
		for i, body := range o.reqs {
			t0 := time.Now()
			var req sim.Request
			if err := decodeRequest(body, &req); err != nil {
				return nil, err
			}
			t1 := time.Now()
			res, err := sess.Run(ctx, req)
			if err != nil {
				return nil, err
			}
			t2 := time.Now()
			doc, err := encodeIndented(res)
			if err != nil {
				return nil, err
			}
			t3 := time.Now()
			if p == 0 {
				r.sameDocs("simulate-hot in-process vs server", [][]byte{o.resps[i]}, [][]byte{doc})
			}
			decode, run, encode = append(decode, us(t1.Sub(t0))), append(run, us(t2.Sub(t1))), append(encode, us(t3.Sub(t2)))
			size, path = append(size, float64(len(doc))), append(path, us(t3.Sub(t0)))
		}
	}
	st := sess.Stats()
	addEngine(m, st.Executed, st.Hits, st.CachedJobs)
	m["sim.run_warm_us"], m["sim.encode_us"], m["sim.result_bytes"], m["server.decode_us"] = median(run), median(encode), median(size), median(decode)
	r.requestClosure(m, "simulate-hot", o, path, map[string]float64{"decode": median(decode), "run": median(run), "encode": median(encode)})
	maps.Copy(m, o.layers)
	return m, nil
}

// --- grid-shared -------------------------------------------------------------

// replayGrid decodes the first repetition's grid, replays its cells through
// the layers (one build and preprocess per workload), checks every cell's
// cycles, and runs the cells through one sim.Session with the server's
// fan-out, which must execute exactly the jobs the server did.
func replayGrid(ctx context.Context, r *run, o *outcome) (map[string]float64, error) {
	m := layerMetrics()
	body := []byte(`{"requests":[` + string(bytes.Join(o.reqs, []byte(","))) + `]}`)
	start := time.Now()
	var grid struct {
		Requests []sim.Request `json:"requests"`
	}
	if err := decodeRequest(body, &grid); err != nil {
		return nil, err
	}
	dec := time.Since(start)
	t := newTracer()
	lr := newLayerReplay(t, nil)
	var busy time.Duration
	for i, req := range grid.Requests {
		cycles, d, err := lr.run(ctx, req)
		if err != nil {
			return nil, err
		}
		busy += d
		r.checks.expect(cycles == cyclesOf(o.resps[i]), "grid-shared cell %d: replayed %d cycles, the server %d", i, cycles, cyclesOf(o.resps[i]))
	}
	ts := totals(t.take())
	setLayers(m, ts)

	sess := sim.NewSession(sim.WithWorkers(r.procs))
	results := make([]*sim.Result, len(grid.Requests))
	errs := make([]error, len(grid.Requests))
	sem := make(chan struct{}, r.procs)
	var wg sync.WaitGroup
	for i, req := range grid.Requests {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = sess.Run(ctx, req)
		}()
	}
	wg.Wait()
	var encode, size []float64
	var encTotal time.Duration
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		start := time.Now()
		doc, err := json.Marshal(res) // streamed cells are compact
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		encTotal += d
		encode, size = append(encode, us(d)), append(size, float64(len(doc)))
	}
	busy += encTotal
	st := sess.Stats()
	r.checkEngine("grid-shared", st, o.statz)
	addEngine(m, st.Executed, st.Hits, st.CachedJobs)
	m["sim.encode_us"], m["sim.result_bytes"], m["server.decode_us"] = median(encode), median(size), us(dec)
	busy += dec
	wall := median(o.primary.lat)
	share := ms(busy) / (float64(r.procs) * wall)
	m["closure.explained_share"] = share
	fmt.Fprintf(r.out, "closure (grid-shared, %d cells): direct grid p50 %.1f ms; layer time %.1f ms over %d workers explains %.1f%%%s [ms: build %.1f, preprocess %.1f, simulate %.1f, encode %.1f, decode %.2f]; routed/direct %.3f, fleet executed/direct %.3f, busiest worker %.1f%% of cells\n",
		len(grid.Requests), wall, ms(busy), r.procs, 100*share, finding(share),
		selfMs(ts, "synth.build"), selfMs(ts, "multiscalar.preprocess"), selfMs(ts, "multiscalar.simulate"),
		ms(encTotal), ms(dec), o.layers["fleet.routed_over_direct"], o.layers["fleet.executed_over_direct"], 100*o.layers["fleet.max_worker_share"])
	maps.Copy(m, o.layers)
	return m, nil
}
