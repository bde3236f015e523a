package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memdep/sim"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- paper-sweep -------------------------------------------------------------

// measureSweep times memdep-bench -quick, the paper reproduction: cold
// sweeps with no store, which compute every table, and warm sweeps against
// a store populated during set-up, which read every persisted result back.
// Every output must equal the committed EXPERIMENTS.md byte for byte.
func measureSweep(ctx context.Context, r *run) (*outcome, error) {
	want, err := os.ReadFile(filepath.Join(r.root, "EXPERIMENTS.md"))
	if err != nil {
		return nil, err
	}
	o := newOutcome("cold", "warm")
	var store string
	for i := 0; i < r.size.setups; i++ {
		// Each population writes its store to the page cache; the probe
		// before every sweep flushes it, so its writeback is not timed.
		store = r.tempDir("store")
		wall, _, err := r.sweep(ctx, store, want, false)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, wall.Seconds())
	}
	for o.measured() < r.seconds || len(o.alt.lat) == 0 {
		wall, rss, err := r.sweep(ctx, "", want, false)
		if err != nil {
			return nil, err
		}
		o.primary.add(wall, 1)
		for i := 0; i < r.size.warmPerCold; i++ {
			w, wrss, err := r.sweep(ctx, store, want, true)
			if err != nil {
				return nil, err
			}
			o.alt.add(w, 1)
			rss = max(rss, wrss)
		}
		o.rss = append(o.rss, rss)
	}
	o.attempted = len(o.primary.lat) + len(o.alt.lat)
	return o, nil
}

// storeLine is memdep-bench's store counter line.
var storeLine = regexp.MustCompile(`\[store: dir=\S* hits=(\d+) misses=(\d+) bypassed=\d+ corrupt=(\d+) writes=(\d+) write_errors=(\d+)\]`)

// sweep runs memdep-bench -quick once against store ("" = none) and checks
// its markdown against want.  A warm sweep must also read every persisted
// result back: hits only, no miss, no corrupt object, no write.  It returns
// the wall time and the peak resident set.
func (r *run) sweep(ctx context.Context, store string, want []byte, warm bool) (time.Duration, float64, error) {
	if err := r.probe(); err != nil {
		return 0, 0, err
	}
	out := filepath.Join(r.work, "sweep.md")
	defer os.Remove(out)
	wall, rss, log, err := r.sup.runOnce(ctx, "memdep-bench", r.benchBin,
		"-quick", "-jobs", strconv.Itoa(r.procs), "-store="+store, "-md", out)
	if err != nil {
		return 0, 0, err
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return 0, 0, err
	}
	r.checks.expect(bytes.Equal(got, want), "memdep-bench -quick (store %q) output differs from EXPERIMENTS.md", store)
	if warm {
		m := storeLine.FindStringSubmatch(log)
		r.checks.expect(m != nil && m[1] != "0" && m[2] == "0" && m[3] == "0" && m[4] == "0" && m[5] == "0",
			"warm sweep did not read every persisted result back: %q", m)
	}
	return wall, rss, nil
}

// --- load generation ---------------------------------------------------------

// load is the closed-loop client: procs clients, each sending its next
// request only when the previous reply has arrived.  pick returns the next
// body index, or false to stop; check sees every 200 reply.  It returns the
// latency in ms of each successful request, the number that failed and the
// time taken, or the context's error once it is cancelled.
func (r *run) load(ctx context.Context, url string, bs [][]byte, pick func() (int, bool), check func(int, []byte)) ([]float64, int, time.Duration, error) {
	lats := make([][]float64, r.procs)
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := pick()
				if !ok || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				status, body, err := r.post(ctx, url+"/v1/simulate", bs[i])
				d := time.Since(t0)
				if err != nil || status != http.StatusOK {
					failed.Add(1)
					continue
				}
				lats[c] = append(lats[c], ms(d))
				check(i, body)
			}
		}()
	}
	wg.Wait()
	busy := time.Since(start)
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, int(failed.Load()), busy, ctx.Err()
}

// onePass returns a pick function that hands out every index once.
func onePass(n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

// cycleUntil returns a pick function that cycles through n indices until
// the deadline.
func cycleUntil(n int, deadline time.Time) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		if time.Now().After(deadline) {
			return 0, false
		}
		return int((next.Add(1) - 1) % int64(n)), true
	}
}

// sendAll sends every body once through the closed loop, records the pass
// into phase p unless it is nil, and returns the replies by index.
func (r *run) sendAll(ctx context.Context, o *outcome, p *phase, url string, bs [][]byte) ([][]byte, error) {
	resps := make([][]byte, len(bs))
	lat, failed, busy, err := r.load(ctx, url, bs, onePass(len(bs)), func(i int, body []byte) { resps[i] = body })
	if p != nil {
		p.record(lat, len(lat), busy)
		o.attempted += len(bs)
		o.failed += failed
	}
	return resps, err
}

// sameDocs checks that two sets of replies are equal after canonical JSON,
// index by index; a missing reply is a failed request, counted elsewhere.
func (r *run) sameDocs(what string, want, got [][]byte) {
	for i := range want {
		if want[i] == nil || got[i] == nil || bytes.Equal(want[i], got[i]) {
			continue
		}
		a, errA := canonicalJSON(want[i])
		b, errB := canonicalJSON(got[i])
		r.checks.expect(errA == nil && errB == nil && bytes.Equal(a, b), "%s: reply %d differs", what, i)
	}
}

// spotCheck runs one request in 50 in process through sim.Session.Run and
// checks the reply matches it after canonical JSON.
func (r *run) spotCheck(ctx context.Context, what string, bs, resps [][]byte) error {
	sess := sim.NewSession(sim.WithWorkers(r.procs))
	for i := 0; i < len(bs); i += 50 {
		if resps[i] == nil {
			continue
		}
		var req sim.Request
		if err := json.Unmarshal(bs[i], &req); err != nil {
			return err
		}
		res, err := sess.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("in-process run of %s request %d: %w", what, i, err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			return err
		}
		r.sameDocs(what+" vs in-process sim.Session.Run", [][]byte{doc}, [][]byte{resps[i]})
	}
	return nil
}

// --- simulate-cold -----------------------------------------------------------

// measureCold sends distinct synthetic requests, each missing every cache
// tier, to a fresh standalone server with a fresh store and then to a fresh
// fleet; every repetition sends the same requests to new processes, so the
// replies must repeat exactly.
func measureCold(ctx context.Context, r *run) (*outcome, error) {
	reqs := coldRequests(r.seed, r.size.coldReqs, r.size.ops)
	if err := checkInputs(reqs); err != nil {
		return nil, err
	}
	bs, err := bodies(reqs)
	if err != nil {
		return nil, err
	}
	o := newOutcome("direct", "routed")
	o.reqs = bs
	for rep := 0; rep == 0 || o.measured() < r.seconds; rep++ {
		if err := r.probe(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		stores := []string{r.tempDir("store"), r.tempDir("store"), r.tempDir("store")}
		direct, err := r.startDirect(ctx, stores[0])
		if err != nil {
			return nil, err
		}
		fleet, err := r.startFleet(ctx, [2]string{stores[1], stores[2]})
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		ready, err := peakRSSMB(direct.procs[0])
		if err != nil {
			return nil, err
		}
		var repRSS float64
		for _, d := range ordered(rep, direct, fleet) {
			if err := r.probe(); err != nil {
				return nil, err
			}
			resps, err := r.sendAll(ctx, o, o.phaseOf(d), d.url, bs)
			if err != nil {
				return nil, err
			}
			rss, err := peakRSS(d)
			if err != nil {
				return nil, err
			}
			repRSS = max(repRSS, rss)
			if o.resps == nil {
				// The first pass, direct (see ordered), is the reference
				// every later pass, direct or routed, must reproduce.
				o.resps = resps
				o.layers["server.rss_kb_per_request"] = (rss - ready) * 1024 / float64(len(bs))
				o.statz = &statz{}
				if err := r.getJSON(ctx, d.url+"/v1/statz", o.statz); err != nil {
					return nil, err
				}
			} else {
				r.sameDocs("simulate-cold "+d.name+" repetition", o.resps, resps)
			}
			r.stopDeployment(d)
		}
		for _, dir := range stores {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		o.rss = append(o.rss, repRSS)
		if rep == 0 {
			if err := r.spotCheck(ctx, "simulate-cold", bs, o.resps); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// ordered returns the two deployments in the order repetition rep measures
// them: alternating, so slow drift does not favour either.
func ordered(rep int, direct, fleet *deployment) []*deployment {
	if rep%2 == 0 {
		return []*deployment{direct, fleet}
	}
	return []*deployment{fleet, direct}
}

// phaseOf returns the phase a deployment's operations are recorded in.
func (o *outcome) phaseOf(d *deployment) *phase {
	if d.name == "routed" {
		return &o.alt
	}
	return &o.primary
}

// --- simulate-hot ------------------------------------------------------------

// measureHot primes fixed requests on a standalone server and a fleet, then
// cycles through them from both: no simulation runs, so the time goes to
// decoding, validation, engine hits, annotation, encoding and the
// coordinator hop.
func measureHot(ctx context.Context, r *run) (*outcome, error) {
	reqs := hotRequests(r.seed, r.size.hotReqs, r.size.ops)
	if err := checkInputs(reqs); err != nil {
		return nil, err
	}
	bs, err := bodies(reqs)
	if err != nil {
		return nil, err
	}
	o := newOutcome("direct", "routed")
	o.reqs = bs
	var direct, fleet *deployment
	for s := 0; s < r.size.setups; s++ {
		if direct != nil {
			r.stopDeployment(direct)
			r.stopDeployment(fleet)
		}
		if err := r.probe(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if direct, err = r.startDirect(ctx, ""); err != nil {
			return nil, err
		}
		if fleet, err = r.startFleet(ctx, [2]string{"", ""}); err != nil {
			return nil, err
		}
		if o.resps, err = r.sendAll(ctx, o, nil, direct.url, bs); err != nil {
			return nil, err
		}
		routed, err := r.sendAll(ctx, o, nil, fleet.url, bs)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		for i := range bs {
			if o.resps[i] == nil || routed[i] == nil {
				return nil, fmt.Errorf("priming request %d failed", i)
			}
		}
		r.sameDocs("simulate-hot routed vs direct", o.resps, routed)
	}

	// Short direct and routed slices alternate, each after a probe of the
	// machine's speed, so both paths see the same host conditions.  The
	// replies must equal the primed ones; identical bytes are the cheap,
	// common case, compared without slowing the clients.
	var mu sync.Mutex
	var differ [][2][]byte
	check := func(i int, body []byte) {
		if !bytes.Equal(body, o.resps[i]) {
			mu.Lock()
			differ = append(differ, [2][]byte{o.resps[i], body})
			mu.Unlock()
		}
	}
	const slice = 250 * time.Millisecond
	for k := 0; o.measured() < r.seconds || k%2 == 1; k++ {
		d := []*deployment{direct, fleet}[k%2]
		if err := r.probe(); err != nil {
			return nil, err
		}
		lat, failed, busy, err := r.load(ctx, d.url, bs, cycleUntil(len(bs), time.Now().Add(slice)), check)
		if err != nil {
			return nil, err
		}
		o.phaseOf(d).record(lat, len(lat), busy)
		o.attempted += len(lat) + failed
		o.failed += failed
	}
	for _, d := range differ {
		r.sameDocs("simulate-hot reply vs primed reply", [][]byte{d[0]}, [][]byte{d[1]})
	}
	rss, err := peakRSS(direct, fleet)
	if err != nil {
		return nil, err
	}
	o.rss = append(o.rss, rss)
	if err := r.spotCheck(ctx, "simulate-hot", bs, o.resps); err != nil {
		return nil, err
	}
	return o, nil
}

// --- grid-shared -------------------------------------------------------------

// measureGrid streams one 12-cells-per-workload grid through a fresh fleet
// and a fresh standalone server per repetition, with fresh seeds each time
// so it stays cold.  Cells sharing a workload exercise within-node dedupe,
// preprocess reuse and how the fleet places related cells.
func measureGrid(ctx context.Context, r *run) (*outcome, error) {
	o := newOutcome("direct", "routed")
	for rep := 0; rep == 0 || o.measured() < r.seconds; rep++ {
		reqs := gridRequests(r.seed, rep, r.size.gridWorkloads, r.size.ops)
		if err := checkInputs(reqs); err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			Requests []sim.Request `json:"requests"`
		}{reqs})
		if err != nil {
			return nil, err
		}
		if err := r.probe(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		direct, err := r.startDirect(ctx, "")
		if err != nil {
			return nil, err
		}
		fleet, err := r.startFleet(ctx, [2]string{"", ""})
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())

		cells := map[string][][]byte{}
		for _, d := range ordered(rep, direct, fleet) {
			if err := r.probe(); err != nil {
				return nil, err
			}
			g, err := r.streamGrid(ctx, d.url, body, len(reqs))
			if err != nil {
				return nil, fmt.Errorf("%s grid: %w", d.name, err)
			}
			p := o.phaseOf(d)
			p.add(g.wall, 0)
			p.first = append(p.first, ms(g.first))
			o.attempted += len(reqs)
			for _, c := range g.cells {
				if c == nil {
					o.failed++
				} else {
					p.units++
				}
			}
			cells[d.name] = g.cells
		}
		r.sameDocs("grid-shared routed vs direct", cells["direct"], cells["routed"])
		var cs coordStatz
		if err := r.getJSON(ctx, fleet.url+"/v1/statz", &cs); err != nil {
			return nil, err
		}
		r.checks.expect(cs.Rerouted == 0, "grid-shared: the coordinator rerouted %d cells", cs.Rerouted)
		if rep == 0 {
			if err := r.gridLayers(ctx, o, direct, fleet, cs); err != nil {
				return nil, err
			}
			o.resps = cells["direct"]
			o.reqs, err = bodies(reqs)
			if err != nil {
				return nil, err
			}
			if err := r.spotCheck(ctx, "grid-shared", o.reqs, o.resps); err != nil {
				return nil, err
			}
		}
		rss, err := peakRSS(direct, fleet)
		if err != nil {
			return nil, err
		}
		o.rss = append(o.rss, rss)
		r.stopDeployment(direct)
		r.stopDeployment(fleet)
	}
	o.layers["fleet.routed_over_direct"] = median(o.alt.lat) / median(o.primary.lat)
	return o, nil
}

// gridLayers reads how the same grid executed on each deployment: the
// standalone server's engine counters, the workers' executed jobs against
// them, and the busiest worker's share of the routed cells.
func (r *run) gridLayers(ctx context.Context, o *outcome, direct, fleet *deployment, cs coordStatz) error {
	o.statz = &statz{}
	if err := r.getJSON(ctx, direct.url+"/v1/statz", o.statz); err != nil {
		return err
	}
	var executed uint64
	for _, w := range fleet.workers {
		var st statz
		if err := r.getJSON(ctx, w+"/v1/statz", &st); err != nil {
			return err
		}
		executed += st.Stats.Executed
	}
	o.layers["fleet.executed_over_direct"] = float64(executed) / float64(o.statz.Stats.Executed)
	var total, busiest uint64
	for _, w := range cs.Workers {
		total += w.Routed
		busiest = max(busiest, w.Routed)
	}
	if total > 0 {
		o.layers["fleet.max_worker_share"] = float64(busiest) / float64(total)
	}
	return nil
}
