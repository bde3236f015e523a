package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"memdep/internal/fleet"
	"memdep/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// localHandler serves a fresh session with the given engine worker count,
// as the standalone and worker roles do.
func localHandler(workers int, lim *fleet.Limiter) http.Handler {
	return fleet.NewLocal(sim.NewSession(sim.WithWorkers(workers)), lim).Handler()
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(localHandler(2, nil))
	t.Cleanup(ts.Close)
	return ts
}

// healthBody is the part of a standalone server's GET /v1/healthz and
// GET /v1/statz bodies the tests read.
type healthBody struct {
	Status string    `json:"status"`
	Stats  sim.Stats `json:"stats"`
}

// do issues a request and returns status and body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// checkGolden compares got against the named golden file (or rewrites it
// with -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: response differs from golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestSimulateGolden pins the full JSON response of POST /v1/simulate for a
// bounded, deterministic request.
func TestSimulateGolden(t *testing.T) {
	ts := newTestServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/simulate",
		`{"bench":"compress","stages":8,"policy":"ESYNC","max_instructions":40000}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	checkGolden(t, "simulate.json.golden", body)
}

// TestGridGolden pins POST /v1/grid: positional results and a shared cache
// (the stats block shows one work item serving all four simulations).
func TestGridGolden(t *testing.T) {
	ts := newTestServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/grid",
		`{"requests":[
			{"bench":"compress","stages":4,"policy":"ALWAYS","max_instructions":40000},
			{"bench":"compress","stages":4,"policy":"ESYNC","max_instructions":40000},
			{"bench":"compress","stages":8,"policy":"ALWAYS","max_instructions":40000},
			{"bench":"compress","stages":8,"policy":"ESYNC","max_instructions":40000}]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	checkGolden(t, "grid.json.golden", body)

	var grid healthBody
	if err := json.Unmarshal(body, &grid); err != nil {
		t.Fatal(err)
	}
	// 1 build + 1 preprocess + 4 simulations.
	if grid.Stats.Executed != 6 {
		t.Errorf("grid executed %d jobs, want 6 (shared work item)", grid.Stats.Executed)
	}
}

// TestBenchmarksGolden pins GET /v1/benchmarks.
func TestBenchmarksGolden(t *testing.T) {
	ts := newTestServer(t)
	status, body := do(t, "GET", ts.URL+"/v1/benchmarks", "")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	checkGolden(t, "benchmarks.json.golden", body)
}

// TestHealthz checks liveness (the stats block varies, so no golden).
func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	status, body := do(t, "GET", ts.URL+"/v1/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var health healthBody
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Stats.Workers < 1 {
		t.Errorf("health = %+v", health)
	}
}

// TestMalformedRequests pins the 400 paths: invalid JSON, unknown fields,
// structured validation errors, empty grids and wrong methods.
func TestMalformedRequests(t *testing.T) {
	ts := newTestServer(t)

	status, body := do(t, "POST", ts.URL+"/v1/simulate", `{"bench":`)
	if status != http.StatusBadRequest {
		t.Errorf("truncated JSON: status = %d", status)
	}
	checkGolden(t, "malformed.json.golden", body)

	status, body = do(t, "POST", ts.URL+"/v1/simulate", `{"bench":"nope","stages":-1,"policy":"SOMETIMES"}`)
	if status != http.StatusBadRequest {
		t.Errorf("invalid fields: status = %d", status)
	}
	checkGolden(t, "invalid-fields.json.golden", body)
	var errResp fleet.ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil {
		t.Fatal(err)
	}
	if len(errResp.Fields) != 3 {
		t.Errorf("structured fields = %+v, want bench/stages/policy", errResp.Fields)
	}

	if status, _ := do(t, "POST", ts.URL+"/v1/simulate", `{"bench":"compress","stage":8}`); status != http.StatusBadRequest {
		t.Errorf("unknown field (typo) accepted: status = %d", status)
	}
	if status, _ := do(t, "POST", ts.URL+"/v1/grid", `{"requests":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty grid: status = %d", status)
	}
	big := `{"requests":[` + strings.Repeat(`{"bench":"compress"},`, fleet.MaxGridRequests) + `{"bench":"compress"}]}`
	if status, _ := do(t, "POST", ts.URL+"/v1/grid", big); status != http.StatusBadRequest {
		t.Errorf("oversized grid: status = %d", status)
	}
	huge := `{"bench":"` + strings.Repeat("x", 1<<20) + `"}` // over the 1 MiB body cap
	if status, _ := do(t, "POST", ts.URL+"/v1/simulate", huge); status != http.StatusBadRequest {
		t.Errorf("oversized body: status = %d", status)
	}
	if status, _ := do(t, "GET", ts.URL+"/v1/simulate", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("GET simulate: status = %d", status)
	}
	if status, _ := do(t, "POST", ts.URL+"/v1/healthz", `{}`); status != http.StatusMethodNotAllowed {
		t.Errorf("POST healthz: status = %d", status)
	}
}

// TestDeprecatedCoreField pins the contract of the deprecated "core" field:
// an omitted core, "EVENT" and "stepped" all run the one timing core, so the
// three bodies share one cache entry and get byte-identical responses, while
// an unknown core is still a structured 400 on "core".
func TestDeprecatedCoreField(t *testing.T) {
	ts := newTestServer(t)
	const base = `{"bench":"compress","stages":4,"max_instructions":20000`
	var first []byte
	for _, core := range []string{``, `,"core":"EVENT"`, `,"core":"stepped"`} {
		status, body := do(t, "POST", ts.URL+"/v1/simulate", base+core+`}`)
		if status != http.StatusOK {
			t.Fatalf("core %q: status %d: %s", core, status, body)
		}
		if first == nil {
			first = body
		} else if string(body) != string(first) {
			t.Errorf("core %q: response differs from the omitted-core one:\n%s\nvs\n%s", core, body, first)
		}
	}
	_, body := do(t, "GET", ts.URL+"/v1/healthz", "")
	var health healthBody
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	// 1 build + 1 preprocess + 1 simulation: the three spellings are one request.
	if health.Stats.Executed != 3 {
		t.Errorf("executed %d jobs for three spellings of one request, want 3", health.Stats.Executed)
	}

	status, body := do(t, "POST", ts.URL+"/v1/simulate", base+`,"core":"polling"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("core polling: status = %d, want 400", status)
	}
	var errResp fleet.ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || len(errResp.Fields) != 1 || errResp.Fields[0].Field != "core" {
		t.Errorf("core polling: want one structured error on core, got %s", body)
	}
}

// TestServerMatchesFacade checks the acceptance-criteria parity: the cycle
// count served over HTTP equals a direct facade run of the same request.
func TestServerMatchesFacade(t *testing.T) {
	ts := newTestServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/simulate", `{"bench":"compress","stages":8,"policy":"ESYNC"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var served sim.Result
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	direct, err := sim.NewSession().Run(context.Background(),
		sim.Request{Bench: "compress", Stages: 8, Policy: sim.PolicyESync})
	if err != nil {
		t.Fatal(err)
	}
	if served.Cycles == 0 || served.Cycles != direct.Cycles {
		t.Errorf("served %d cycles, direct facade run %d", served.Cycles, direct.Cycles)
	}
}

// TestConcurrentRequestsShareCache fires identical and overlapping requests
// from many goroutines and checks they all succeed and the session cache
// deduplicated the work.
func TestConcurrentRequestsShareCache(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		pol := []string{"ALWAYS", "SYNC", "ESYNC", "NEVER"}[i%4]
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := do(t, "POST", ts.URL+"/v1/simulate",
				fmt.Sprintf(`{"bench":"sc","policy":%q,"max_instructions":30000}`, pol))
			if status != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", status, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	_, body := do(t, "GET", ts.URL+"/v1/healthz", "")
	var health healthBody
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	// 1 build + 1 preprocess + 4 distinct simulations; the other 12 requests
	// were deduplicated onto the cache.
	if health.Stats.Executed != 6 {
		t.Errorf("executed %d jobs for 16 overlapping requests, want 6", health.Stats.Executed)
	}
	if health.Stats.Hits == 0 {
		t.Error("no cache hits recorded")
	}
}

// TestGracefulShutdown starts a real server, opens an in-flight request,
// then shuts down: the in-flight request must complete and the listener must
// close.
func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: localHandler(2, nil)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Wait until the server answers.
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Open an in-flight simulation (unbounded run: long enough to still be
	// in flight when Shutdown begins).
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/simulate", "application/json",
			strings.NewReader(`{"bench":"xlisp","policy":"ESYNC"}`))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request got status %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	time.Sleep(20 * time.Millisecond)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request during shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}

// TestSynthSimulate drives a synthetic-workload request through the service:
// the same spec+seed must be seed-reproducible over HTTP (identical bodies
// across calls and across a server restart), different seeds must differ,
// and spec problems must come back as structured 400s.
func TestSynthSimulate(t *testing.T) {
	ts := newTestServer(t)
	body := `{"synth":{"seed":7,"ops":8192,"body":128,"alias_set_size":4},"policy":"ESYNC"}`

	status, first := do(t, "POST", ts.URL+"/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, first)
	}
	var res sim.Result
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Errorf("empty result: %d cycles, %d instructions", res.Cycles, res.Instructions)
	}
	if res.Request.Synth == nil || res.Request.Synth.Seed != 7 || res.Request.Synth.Name != "synth" {
		t.Errorf("result does not echo the normalized spec: %+v", res.Request.Synth)
	}

	// Repeating the request (memoized) and replaying it against a fresh
	// server (recomputed) both reproduce the response byte for byte.
	if _, again := do(t, "POST", ts.URL+"/v1/simulate", body); string(again) != string(first) {
		t.Error("repeated synthetic request changed the response")
	}
	ts2 := newTestServer(t)
	if _, fresh := do(t, "POST", ts2.URL+"/v1/simulate", body); string(fresh) != string(first) {
		t.Error("synthetic request is not reproducible across server instances")
	}

	// A different seed is a different workload.
	otherBody := strings.Replace(body, `"seed":7`, `"seed":8`, 1)
	if _, other := do(t, "POST", ts.URL+"/v1/simulate", otherBody); string(other) == string(first) {
		t.Error("different seeds served identical results")
	}

	// bench+synth together and bad spec fields are structured 400s.
	status, errBody := do(t, "POST", ts.URL+"/v1/simulate", `{"bench":"compress","synth":{}}`)
	if status != http.StatusBadRequest {
		t.Errorf("bench+synth: status = %d", status)
	}
	var errResp fleet.ErrorResponse
	if err := json.Unmarshal(errBody, &errResp); err != nil || len(errResp.Fields) == 0 {
		t.Errorf("bench+synth: unstructured error %s", errBody)
	}
	status, errBody = do(t, "POST", ts.URL+"/v1/simulate", `{"synth":{"ops":-1,"load_frac":2}}`)
	if status != http.StatusBadRequest {
		t.Errorf("bad spec: status = %d", status)
	}
	errResp = fleet.ErrorResponse{}
	if err := json.Unmarshal(errBody, &errResp); err != nil || len(errResp.Fields) < 2 {
		t.Errorf("bad spec: want per-field errors, got %s", errBody)
	}
}

// TestStatz pins GET /v1/statz: without a store it mirrors the session
// stats, and with -store wired it exposes the persistent tier's counters,
// including the disk hits of a restarted server replaying the same request,
// which recomputes nothing persisted: its one execution is the memory-only
// synth/build rebuild, counted as bypassed.
func TestStatz(t *testing.T) {
	ts := newTestServer(t)
	status, body := do(t, "GET", ts.URL+"/v1/statz", "")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var resp healthBody
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if resp.Stats.Workers != 2 || resp.Stats.Store != nil {
		t.Fatalf("stats = %+v, want 2 workers and no store section", resp.Stats)
	}

	// A store-backed server counts its disk traffic; a second instance on
	// the same directory serves the replayed request from disk.
	dir := t.TempDir()
	req := `{"synth":{"seed":3,"ops":2048},"stages":4,"policy":"ESYNC"}`
	storeServer := func() (*httptest.Server, func() sim.Stats) {
		session := sim.NewSession(sim.WithWorkers(2), sim.WithStore(dir))
		s := httptest.NewServer(fleet.NewLocal(session, nil).Handler())
		t.Cleanup(s.Close)
		return s, session.Stats
	}
	ts1, _ := storeServer()
	if status, _ := do(t, "POST", ts1.URL+"/v1/simulate", req); status != http.StatusOK {
		t.Fatalf("cold simulate: status = %d", status)
	}
	_, body = do(t, "GET", ts1.URL+"/v1/statz", "")
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Store == nil || resp.Stats.Store.Counters.Writes == 0 {
		t.Fatalf("cold statz missing store writes: %s", body)
	}

	ts2, _ := storeServer()
	if status, _ := do(t, "POST", ts2.URL+"/v1/simulate", req); status != http.StatusOK {
		t.Fatalf("warm simulate: status = %d", status)
	}
	_, body = do(t, "GET", ts2.URL+"/v1/statz", "")
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	st := resp.Stats
	if st.Store == nil || st.Store.Counters.Hits == 0 {
		t.Fatalf("warm statz missing store hits: %s", body)
	}
	sc := st.Store.Counters
	if sc.Misses != 0 || st.Executed != sc.Bypassed {
		t.Fatalf("restarted server executed %d jobs with %d store misses and %d bypassed, want every execution bypassed (served from disk): %s",
			st.Executed, sc.Misses, sc.Bypassed, body)
	}
	if kc := st.Store.Kinds["synth/build"]; st.Executed == 0 || kc.Bypassed != st.Executed {
		t.Fatalf("restarted server executed %d jobs, want only the synth/build rebuild: %s", st.Executed, body)
	}
	if kc := st.Store.Kinds["multiscalar/simulate"]; kc.Hits == 0 {
		t.Fatalf("no per-kind simulate hits: %s", body)
	}
}
