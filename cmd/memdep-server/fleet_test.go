package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memdep/internal/fleet"
	"memdep/sim"
)

// crashableWorker is a real worker server (full sim session) on a manual
// listener, so tests can kill it abruptly mid-request.
type crashableWorker struct {
	url string
	srv *http.Server
}

func startWorker(t *testing.T) *crashableWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &crashableWorker{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: localHandler(2, nil)},
	}
	go w.srv.Serve(ln) //nolint:errcheck // closed by crash/cleanup
	t.Cleanup(func() { w.srv.Close() })
	return w
}

// crash closes the listener and every active connection at once: in-flight
// proxied requests fail at the transport level, exactly like a killed
// process.
func (w *crashableWorker) crash() { w.srv.Close() }

func newFleet(t *testing.T, workers ...*crashableWorker) (*fleet.Coordinator, *httptest.Server) {
	t.Helper()
	coord := fleet.NewCoordinator(fleet.Config{HealthInterval: time.Hour})
	t.Cleanup(coord.Close)
	for i, w := range workers {
		if err := coord.Registry().Register(fmt.Sprintf("w%d", i+1), w.url); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return coord, ts
}

// TestFleetRoutedSimulateMatchesDirect runs one request through a
// 1-coordinator/2-worker fleet and checks the routed result equals a direct
// facade run: the fleet changes where work runs, never what it computes.
func TestFleetRoutedSimulateMatchesDirect(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	_, ts := newFleet(t, w1, w2)

	body := `{"bench":"compress","stages":8,"policy":"ESYNC","max_instructions":40000}`
	status, routed := do(t, "POST", ts.URL+"/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("routed simulate: status = %d, body %s", status, routed)
	}
	var res sim.Result
	if err := json.Unmarshal(routed, &res); err != nil {
		t.Fatal(err)
	}
	direct, err := sim.NewSession().Run(context.Background(), sim.Request{
		Bench: "compress", Stages: 8, Policy: sim.PolicyESync, MaxInstructions: 40000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Cycles != direct.Cycles {
		t.Errorf("routed run: %d cycles, direct run: %d", res.Cycles, direct.Cycles)
	}
}

// gridCells posts a grid and decodes the NDJSON stream into cells + summary.
func gridCells(t *testing.T, url, body string) ([]fleet.GridCell, fleet.GridSummary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/grid", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != fleet.NDJSONContentType {
		t.Fatalf("content type = %q, want %q", ct, fleet.NDJSONContentType)
	}
	var cells []fleet.GridCell
	var summary fleet.GridSummary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var sl fleet.GridSummaryLine
		if err := json.Unmarshal(line, &sl); err == nil && sl.Summary.Cells > 0 {
			summary = sl.Summary
			sawSummary = true
			continue
		}
		var cell fleet.GridCell
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		cells = append(cells, cell)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary record")
	}
	return cells, summary
}

// TestFleetWorkerCrashMidGrid kills one of two workers while a streaming
// grid is in flight: every cell must arrive exactly once (rerouted, not
// duplicated or lost) and the killed worker must be demoted.
func TestFleetWorkerCrashMidGrid(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	coord, ts := newFleet(t, w1, w2)

	const cells = 12
	var reqs []string
	for i := 0; i < cells; i++ {
		reqs = append(reqs, fmt.Sprintf(`{"synth":{"seed":%d,"ops":30000},"stages":4}`, i+1))
	}
	body := `{"requests":[` + strings.Join(reqs, ",") + `],"stream":true}`

	// Crash the first worker shortly after the grid starts.
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		time.Sleep(50 * time.Millisecond)
		w1.crash()
	}()

	got, summary := gridCells(t, ts.URL, body)
	<-crashed

	seen := map[int]int{}
	for _, cell := range got {
		seen[cell.Index]++
		if cell.Error != "" {
			t.Errorf("cell %d errored despite a surviving worker: %s", cell.Index, cell.Error)
		}
	}
	for i := 0; i < cells; i++ {
		if seen[i] != 1 {
			t.Errorf("cell %d arrived %d times, want exactly once", i, seen[i])
		}
	}
	if summary.Cells != cells || summary.OK != cells || summary.Errors != 0 {
		t.Errorf("summary = %+v, want all %d cells ok", summary, cells)
	}
	st := coord.Stats()
	if st.Rerouted == 0 {
		// The crash may land after w1's share already finished on a fast
		// machine, but with 12 cells and a 50ms fuse some should be caught.
		t.Logf("note: no reroutes recorded (crash landed after w1's cells finished); stats = %+v", st)
	}
	if coord.Registry().Healthy() == 2 && st.Rerouted > 0 {
		t.Errorf("worker rerouted around but not demoted: %+v", st)
	}
}

// TestFleetCoordinatorRestart replaces the coordinator with a fresh one on
// the same address: the workers' heartbeats repopulate the new registry
// without any operator action.
func TestFleetCoordinatorRestart(t *testing.T) {
	w1 := startWorker(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	coord1 := fleet.NewCoordinator(fleet.Config{HealthInterval: time.Hour})
	srv1 := &http.Server{Handler: coord1.Handler()}
	go srv1.Serve(ln) //nolint:errcheck

	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Coordinator: "http://" + addr,
		Name:        "w1",
		URL:         w1.url,
		Interval:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	agentDone := make(chan struct{})
	go func() { defer close(agentDone); agent.Run(actx) }()

	waitForCond(t, time.Second, func() bool { return coord1.Registry().Healthy() == 1 })

	// Kill the coordinator, then bring a fresh one up on the same address
	// with an empty registry.
	srv1.Close()
	coord1.Close()
	coord2 := fleet.NewCoordinator(fleet.Config{HealthInterval: time.Hour})
	t.Cleanup(coord2.Close)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: coord2.Handler()}
	go srv2.Serve(ln2) //nolint:errcheck
	t.Cleanup(func() { srv2.Close() })

	// The worker's next heartbeat re-registers it with the new coordinator.
	waitForCond(t, 2*time.Second, func() bool { return coord2.Registry().Healthy() == 1 })

	// And the rebuilt fleet serves requests.
	status, body := do(t, "POST", "http://"+addr+"/v1/simulate", `{"synth":{"seed":1,"ops":4096}}`)
	if status != http.StatusOK {
		t.Fatalf("simulate after restart: status = %d, body %s", status, body)
	}

	// Agent shutdown drains the worker out of the new registry too.
	acancel()
	<-agentDone
	if coord2.Registry().Len() != 0 {
		t.Errorf("worker still registered after agent shutdown")
	}
}

// TestStandaloneStreamingFirstCellBeforeCompletion checks the point of the
// streaming mode: with one cheap and one expensive cell, the cheap cell's
// line arrives long before the stream finishes.
func TestStandaloneStreamingFirstCellBeforeCompletion(t *testing.T) {
	ts := newTestServer(t)

	body := `{"requests":[
		{"synth":{"seed":1,"ops":512},"stages":4},
		{"synth":{"seed":2,"ops":400000}}],"stream":true}`
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/grid", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	rd := bufio.NewReader(resp.Body)
	first, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	firstAt := time.Since(start)
	var cell fleet.GridCell
	if err := json.Unmarshal(first, &cell); err != nil {
		t.Fatalf("first line %q: %v", first, err)
	}
	if cell.Error != "" {
		t.Fatalf("first cell errored: %s", cell.Error)
	}
	rest, err := io_ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	total := time.Since(start)
	if !bytes.Contains(rest, []byte(`"summary"`)) {
		t.Fatalf("stream missing summary: %s", rest)
	}
	// The cheap cell must beat the whole stream by a wide margin; 2x is
	// conservative (the expensive cell is ~800x the work).
	if firstAt*2 >= total {
		t.Errorf("first cell at %v of %v total: streaming did not deliver early", firstAt, total)
	}
}

// io_ReadAll reads the remainder of a bufio.Reader.
func io_ReadAll(rd *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

// TestStandaloneStreamingMatchesBuffered checks the two grid modes compute
// identical results for the same requests.
func TestStandaloneStreamingMatchesBuffered(t *testing.T) {
	ts := newTestServer(t)
	reqs := `[{"synth":{"seed":1,"ops":8192},"stages":4},{"synth":{"seed":2,"ops":8192},"stages":8}]`

	status, buffered := do(t, "POST", ts.URL+"/v1/grid", `{"requests":`+reqs+`}`)
	if status != http.StatusOK {
		t.Fatalf("buffered grid: status = %d", status)
	}
	var bresp struct{ Results []sim.Result }
	if err := json.Unmarshal(buffered, &bresp); err != nil {
		t.Fatal(err)
	}

	cells, summary := gridCells(t, ts.URL, `{"requests":`+reqs+`,"stream":true}`)
	if len(cells) != len(bresp.Results) || summary.OK != len(cells) {
		t.Fatalf("streamed %d cells (summary %+v), buffered %d", len(cells), summary, len(bresp.Results))
	}
	if summary.Stats == nil {
		t.Fatal("streaming summary missing session stats")
	}
	for _, cell := range cells {
		var streamed sim.Result
		if err := json.Unmarshal(cell.Result, &streamed); err != nil {
			t.Fatal(err)
		}
		want := bresp.Results[cell.Index]
		if streamed.Cycles != want.Cycles || streamed.Instructions != want.Instructions {
			t.Errorf("cell %d: streamed %d cycles / %d instructions, buffered %d / %d",
				cell.Index, streamed.Cycles, streamed.Instructions, want.Cycles, want.Instructions)
		}
	}
}

// TestStandaloneAdmission saturates a limited server: the extra request is
// rejected with 429 + Retry-After, an invalid one is still a 400, and
// capacity frees up afterwards.
func TestStandaloneAdmission(t *testing.T) {
	lim := fleet.NewLimiter(1, 0)
	ts := httptest.NewServer(localHandler(2, lim))
	t.Cleanup(ts.Close)

	// Hold the only in-flight slot, exactly as a long-running admitted
	// request would.
	release, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", strings.NewReader(`{"synth":{"seed":9,"ops":1024}}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	// Validation precedes admission: a bad body is still a structured 400.
	for _, bad := range []struct{ path, body string }{
		{"/v1/simulate", `{"synth":{"seed":9,"ops":1024},"stages":-1}`},
		{"/v1/grid", `{"requests":[{"bench":"nope"}]}`},
	} {
		if status, body := do(t, "POST", ts.URL+bad.path, bad.body); status != http.StatusBadRequest {
			t.Errorf("saturated server answered an invalid %s body with %d: %s", bad.path, status, body)
		}
	}

	// With the slot free again, the same request is admitted.
	release()
	if status, body := do(t, "POST", ts.URL+"/v1/simulate", `{"synth":{"seed":9,"ops":1024}}`); status != http.StatusOK {
		t.Fatalf("post-saturation request: status %d, body %s", status, body)
	}
}

// waitForCond polls cond until it holds or the deadline passes.
func waitForCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
