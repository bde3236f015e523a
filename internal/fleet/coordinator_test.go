package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memdep/sim"
)

// echoWorker is a stub worker: it answers /v1/healthz and echoes back the
// posted body under its own name from /v1/simulate, so tests can see which
// worker served a request without running real simulations.
func echoWorker(t *testing.T, name string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		writeJSON(w, http.StatusOK, map[string]any{"worker": name, "echo": json.RawMessage(body)})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour // tests drive CheckOnce themselves
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

func postJSON(t *testing.T, h http.Handler, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestCoordinatorRoutesSticky(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	w1 := echoWorker(t, "w1")
	w2 := echoWorker(t, "w2")
	c.Registry().Register("w1", w1.URL)
	c.Registry().Register("w2", w2.URL)
	h := c.Handler()

	served := func(body string) string {
		rec := postJSON(t, h, "/v1/simulate", body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("simulate returned %d: %s", rec.Code, rec.Body)
		}
		var resp struct {
			Worker string `json:"worker"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Worker
	}

	// The same simulation -- in any spelling -- lands on the same worker,
	// because routing keys on the canonical normalized JSON.
	a := served(`{"bench": "compress"}`)
	b := served(`{"bench": "compress", "stages": 8, "policy": "esync"}`)
	if a != b {
		t.Fatalf("equivalent requests routed to %q and %q", a, b)
	}

	// Distinct simulations spread across the fleet.
	owners := map[string]bool{}
	for i := 1; i <= 32; i++ {
		owners[served(fmt.Sprintf(`{"bench": "compress", "scale": %d}`, i))] = true
	}
	if len(owners) != 2 {
		t.Fatalf("32 distinct requests used %d workers, want both", len(owners))
	}
	if st := c.Stats(); st.Routed < 34 || st.Unroutable != 0 {
		t.Fatalf("stats = %+v, want >= 34 routed and none unroutable", st)
	}
}

func TestCoordinatorReroutesAroundDeadWorker(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	live := echoWorker(t, "live")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens: every forward is a transport error
	c.Registry().Register("live", live.URL)
	c.Registry().Register("dead", dead.URL)
	h := c.Handler()

	// Every request must succeed regardless of which worker the key hashes
	// to, because transport failures walk the failover order.
	for i := 0; i < 16; i++ {
		rec := postJSON(t, h, "/v1/simulate", fmt.Sprintf(`{"bench": "compress", "scale": %d}`, i+1), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d returned %d: %s", i, rec.Code, rec.Body)
		}
	}
	st := c.Stats()
	if st.Rerouted == 0 {
		t.Fatalf("stats = %+v, want at least one reroute around the dead worker", st)
	}
	if c.Registry().Healthy() != 1 {
		t.Fatalf("healthy = %d after reroutes, want the dead worker demoted", c.Registry().Healthy())
	}
}

func TestCoordinatorNoWorkersIs503(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	rec := postJSON(t, c.Handler(), "/v1/simulate", `{"bench": "compress"}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet returned %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

func TestCoordinatorValidatesLocally(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	// No workers registered: a 400 here proves validation happened locally,
	// before any routing.
	rec := postJSON(t, c.Handler(), "/v1/simulate", `{"bench": "compress", "stages": -1}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid request returned %d: %s", rec.Code, rec.Body)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Fields) == 0 || resp.Fields[0].Field != "stages" {
		t.Fatalf("error fields = %+v, want a stages field error", resp.Fields)
	}
	// Unknown fields are rejected strictly, matching the standalone server.
	rec = postJSON(t, c.Handler(), "/v1/simulate", `{"bench": "compress", "bogus": 1}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d, want 400", rec.Code)
	}
}

func TestCoordinatorAdmissionRejectsWith429(t *testing.T) {
	c := newTestCoordinator(t, Config{MaxInflight: 1, MaxQueue: -1})
	release := make(chan struct{})
	blocked := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		blocked <- struct{}{}
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"worker": "slow"})
	})
	slow := httptest.NewServer(mux)
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(release) })
	c.Registry().Register("slow", slow.URL)
	h := c.Handler()

	done := make(chan int, 1)
	go func() {
		rec := postJSON(t, h, "/v1/simulate", `{"bench": "compress"}`, nil)
		done <- rec.Code
	}()
	<-blocked // the single in-flight slot is now held

	rec := postJSON(t, h, "/v1/simulate", `{"bench": "compress", "scale": 2}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated coordinator returned %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	release <- struct{}{}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request returned %d", code)
	}
	if st := c.Stats(); st.Admission.Rejected != 1 {
		t.Fatalf("admission stats = %+v, want rejected=1", st.Admission)
	}
}

func TestCoordinatorBufferedGrid(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	w1 := echoWorker(t, "w1")
	w2 := echoWorker(t, "w2")
	c.Registry().Register("w1", w1.URL)
	c.Registry().Register("w2", w2.URL)

	body := `{"requests": [{"bench": "compress", "scale": 1}, {"bench": "compress", "scale": 2}, {"bench": "compress", "scale": 3}]}`
	rec := postJSON(t, c.Handler(), "/v1/grid", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("grid returned %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			Worker string          `json:"worker"`
			Echo   json.RawMessage `json:"echo"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	// Results are positional: cell i echoes request i's canonical form.
	for i, res := range resp.Results {
		var echoed sim.Request
		if err := json.Unmarshal(res.Echo, &echoed); err != nil {
			t.Fatal(err)
		}
		wantScale := i + 1
		if echoed.Scale != wantScale {
			t.Fatalf("cell %d echoed scale %d, want %d", i, echoed.Scale, wantScale)
		}
	}

	// An invalid cell fails the whole buffered grid with a 400 naming it.
	rec = postJSON(t, c.Handler(), "/v1/grid", `{"requests": [{"bench": "compress"}, {"bench": "compress", "stages": -1}]}`, nil)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request 1") {
		t.Fatalf("grid with invalid cell returned %d: %s", rec.Code, rec.Body)
	}

	// Shape limits match the standalone server.
	rec = postJSON(t, c.Handler(), "/v1/grid", `{"requests": []}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty grid returned %d, want 400", rec.Code)
	}
}

// decodeStream parses an NDJSON grid response into cells and the summary.
func decodeStream(t *testing.T, body *bytes.Buffer) ([]GridCell, GridSummary) {
	t.Helper()
	lines, summary := streamLines(t, body.Bytes())
	var cells []GridCell
	for _, line := range lines {
		var cell GridCell
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		cells = append(cells, cell)
	}
	return cells, summary
}

func TestCoordinatorStreamingGrid(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	w1 := echoWorker(t, "w1")
	c.Registry().Register("w1", w1.URL)

	// Both opt-ins work: the Accept header and the body field.
	for name, tc := range map[string]struct {
		body string
		hdr  map[string]string
	}{
		"accept-header": {`{"requests": [{"bench": "compress"}, {"bench": "compress", "scale": 2}]}`,
			map[string]string{"Accept": NDJSONContentType}},
		"body-field": {`{"requests": [{"bench": "compress"}, {"bench": "compress", "scale": 2}], "stream": true}`, nil},
	} {
		rec := postJSON(t, c.Handler(), "/v1/grid", tc.body, tc.hdr)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: streaming grid returned %d: %s", name, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Content-Type"); got != NDJSONContentType {
			t.Fatalf("%s: content type %q, want %q", name, got, NDJSONContentType)
		}
		cells, summary := decodeStream(t, rec.Body)
		if len(cells) != 2 {
			t.Fatalf("%s: got %d cells, want 2", name, len(cells))
		}
		seen := map[int]bool{}
		for _, cell := range cells {
			if cell.Error != "" {
				t.Fatalf("%s: cell %d errored: %s", name, cell.Index, cell.Error)
			}
			if seen[cell.Index] {
				t.Fatalf("%s: duplicate cell index %d", name, cell.Index)
			}
			seen[cell.Index] = true
		}
		if !seen[0] || !seen[1] {
			t.Fatalf("%s: cell indices incomplete: %v", name, seen)
		}
		if summary.Cells != 2 || summary.OK != 2 || summary.Errors != 0 {
			t.Fatalf("%s: summary = %+v", name, summary)
		}
	}
}

func TestCoordinatorStreamingGridReportsPerCellErrors(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	w1 := echoWorker(t, "w1")
	c.Registry().Register("w1", w1.URL)

	body := `{"requests": [{"bench": "compress"}, {"bench": "compress", "stages": -1}], "stream": true}`
	rec := postJSON(t, c.Handler(), "/v1/grid", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("streaming grid returned %d: %s", rec.Code, rec.Body)
	}
	cells, summary := decodeStream(t, rec.Body)
	if len(cells) != 2 || summary.OK != 1 || summary.Errors != 1 {
		t.Fatalf("cells=%d summary=%+v, want one ok and one error", len(cells), summary)
	}
	for _, cell := range cells {
		if cell.Index == 1 {
			if cell.Error == "" || len(cell.Fields) == 0 || cell.Fields[0].Field != "stages" {
				t.Fatalf("invalid cell reported as %+v, want a stages field error", cell)
			}
		}
	}
}

func TestCoordinatorMembershipEndpoints(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	w1 := echoWorker(t, "w1")
	h := c.Handler()

	rec := postJSON(t, h, "/v1/fleet/register", fmt.Sprintf(`{"name": "w1", "url": %q}`, w1.URL), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("register returned %d: %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, h, "/v1/fleet/register", `{"name": "", "url": "http://x"}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("register with empty name returned %d, want 400", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/fleet/workers", nil)
	list := httptest.NewRecorder()
	h.ServeHTTP(list, req)
	var workers WorkersResponse
	if err := json.Unmarshal(list.Body.Bytes(), &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers.Workers) != 1 || workers.Workers[0].Name != "w1" || workers.Healthy != 1 {
		t.Fatalf("workers = %+v", workers)
	}

	rec = postJSON(t, h, "/v1/fleet/deregister", `{"name": "w1"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("deregister returned %d: %s", rec.Code, rec.Body)
	}
	if c.Registry().Len() != 0 {
		t.Fatalf("len = %d after deregister, want 0", c.Registry().Len())
	}
}

func TestCoordinatorServesDeclaredRoutes(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	h := c.Handler()
	for _, rt := range Routes() {
		req := httptest.NewRequest(rt.Method, rt.Pattern, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("declared route %s %s is not served (got %d)", rt.Method, rt.Pattern, rec.Code)
		}
	}
}

func TestAgentLifecycle(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)
	w1 := echoWorker(t, "w1")

	agent, err := NewAgent(AgentConfig{
		Coordinator: coord.URL,
		Name:        "w1",
		URL:         w1.URL,
		Interval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		agent.Run(ctx)
		close(done)
	}()

	waitFor(t, time.Second, func() bool { return c.Registry().Healthy() == 1 })

	// A coordinator restart loses the registry; the heartbeat repopulates it.
	c.Registry().Deregister("w1")
	waitFor(t, time.Second, func() bool { return c.Registry().Healthy() == 1 })

	// Shutdown drains: the agent deregisters before returning.
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("agent.Run did not return after cancellation")
	}
	if c.Registry().Len() != 0 {
		t.Fatalf("len = %d after agent shutdown, want the worker drained out", c.Registry().Len())
	}
}

func TestAgentConfigValidation(t *testing.T) {
	if _, err := NewAgent(AgentConfig{Name: "w", URL: "http://w:1"}); err == nil {
		t.Fatal("missing coordinator accepted")
	}
	if _, err := NewAgent(AgentConfig{Coordinator: "http://c:1", URL: "http://w:1"}); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, err := NewAgent(AgentConfig{Coordinator: "http://c:1", Name: "w", URL: "nope"}); err == nil {
		t.Fatal("relative worker url accepted")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
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

// TestStreamWriterConcurrent exercises the line writer under -race.
func TestStreamWriterConcurrent(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := newStreamWriter(rec)
	var wrote atomic.Int64
	doneCh := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { doneCh <- struct{}{} }()
			for i := 0; i < 50; i++ {
				if err := sw.write(GridCell{Index: g*50 + i}); err != nil {
					t.Error(err)
					return
				}
				wrote.Add(1)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-doneCh
	}
	lines := bytes.Count(rec.Body.Bytes(), []byte("\n"))
	if int64(lines) != wrote.Load() {
		t.Fatalf("wrote %d records but body has %d lines (interleaved writes?)", wrote.Load(), lines)
	}
}
