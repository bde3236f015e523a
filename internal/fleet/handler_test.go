package fleet

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

	"memdep/sim"
)

// realWorker serves a fresh session over HTTP, as a worker process does.
func realWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewLocal(sim.NewSession(sim.WithWorkers(2)), nil).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// routedFleet builds a coordinator fronting the given workers, by name.
func routedFleet(t *testing.T, workers map[string]string) *Coordinator {
	t.Helper()
	c := newTestCoordinator(t, Config{})
	for name, url := range workers {
		if err := c.Registry().Register(name, url); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// send serves one request on h; accept, when set, is the Accept header.
func send(h http.Handler, method, path, body, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// streamLines splits an NDJSON grid response into its raw cell lines, by
// index, and its summary.
func streamLines(t *testing.T, body []byte) (map[int][]byte, GridSummary) {
	t.Helper()
	cells := map[int][]byte{}
	var summary *GridSummary
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Index   *int         `json:"index"`
			Summary *GridSummary `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		switch {
		case summary != nil:
			t.Fatalf("record after the summary: %s", sc.Bytes())
		case rec.Summary != nil:
			summary = rec.Summary
		case rec.Index == nil || cells[*rec.Index] != nil:
			t.Fatalf("cell line without a fresh index: %s", sc.Bytes())
		default:
			cells[*rec.Index] = bytes.Clone(sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary record")
	}
	return cells, *summary
}

// compact strips the indentation of a served JSON document.
func compact(t *testing.T, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		t.Fatalf("compact %q: %v", doc, err)
	}
	return buf.Bytes()
}

// TestCrossRoleConformance sends one table of requests to a standalone
// handler and to a coordinator fronting one real worker.  Status,
// Content-Type and body bytes must match, and so must buffered results and
// streamed cells; only the stats blocks differ.
func TestCrossRoleConformance(t *testing.T) {
	standalone := NewLocal(sim.NewSession(sim.WithWorkers(2)), nil).Handler()
	routed := routedFleet(t, map[string]string{"w1": realWorker(t).URL}).Handler()

	oversizedGrid := `{"requests":[` + strings.Repeat(`{"bench":"compress"},`, MaxGridRequests) + `{"bench":"compress"}]}`
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		bodyHas                  string
	}{
		{"simulate golden request", "POST", "/v1/simulate", `{"bench":"compress","stages":8,"policy":"ESYNC","max_instructions":40000}`, 200, `"cycles"`},
		{"malformed JSON", "POST", "/v1/simulate", `{"bench":`, 400, "malformed request body"},
		{"unknown field", "POST", "/v1/simulate", `{"bench":"compress","stage":8}`, 400, "unknown field"},
		{"invalid fields", "POST", "/v1/simulate", `{"bench":"nope","stages":-1,"policy":"SOMETIMES"}`, 400, `"field": "policy"`},
		{"oversized body", "POST", "/v1/simulate", `{"bench":"` + strings.Repeat("x", maxBodyBytes) + `"}`, 400, "too large"},
		{"empty grid", "POST", "/v1/grid", `{"requests":[]}`, 400, "at least one request"},
		{"oversized grid", "POST", "/v1/grid", oversizedGrid, 400, "limited to 1024"},
		{"one-cell invalid grid", "POST", "/v1/grid", `{"requests":[{"bench":"compress","stages":-1}]}`, 400, `"request 0: invalid request: `},
		{"multi-cell invalid grid", "POST", "/v1/grid", `{"requests":[{"bench":"compress"},{"bench":"nope"}]}`, 400, `"request 1: invalid request: `},
		{"wrong method", "GET", "/v1/simulate", "", 405, "Method Not Allowed"},
	} {
		a := send(standalone, tc.method, tc.path, tc.body, "")
		b := send(routed, tc.method, tc.path, tc.body, "")
		if a.Code != tc.status || !strings.Contains(a.Body.String(), tc.bodyHas) {
			t.Errorf("%s: standalone answered %d, want %d with %q:\n%s", tc.name, a.Code, tc.status, tc.bodyHas, a.Body)
		}
		if b.Code != a.Code || b.Header().Get("Content-Type") != a.Header().Get("Content-Type") || !bytes.Equal(b.Body.Bytes(), a.Body.Bytes()) {
			t.Errorf("%s: roles differ\nstandalone %d %q:\n%s\ncoordinator %d %q:\n%s", tc.name,
				a.Code, a.Header().Get("Content-Type"), a.Body, b.Code, b.Header().Get("Content-Type"), b.Body)
		}
	}

	grid := `{"requests":[
		{"bench":"compress","stages":4,"policy":"ALWAYS","max_instructions":40000},
		{"bench":"compress","stages":4,"policy":"ESYNC","max_instructions":40000},
		{"synth":{"seed":5,"ops":4096},"stages":8},
		{"bench":"compress","stages":4,"policy":"NOPE"}]}`

	// Buffered: the invalid last cell fails the whole grid alike; without
	// it, the results match byte for byte and only the standalone reports
	// session stats.
	a := send(standalone, "POST", "/v1/grid", grid, "")
	b := send(routed, "POST", "/v1/grid", grid, "")
	if a.Code != 400 || b.Code != 400 || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Errorf("invalid buffered grid: standalone %d %s, coordinator %d %s", a.Code, a.Body, b.Code, b.Body)
	}
	valid := strings.Replace(grid, `"NOPE"`, `"NEVER"`, 1)
	a = send(standalone, "POST", "/v1/grid", valid, "")
	b = send(routed, "POST", "/v1/grid", valid, "")
	var ga, gb struct {
		Results []json.RawMessage `json:"results"`
		Stats   *sim.Stats        `json:"stats"`
	}
	if err := json.Unmarshal(a.Body.Bytes(), &ga); err != nil || a.Code != 200 {
		t.Fatalf("standalone buffered grid: %d %v\n%s", a.Code, err, a.Body)
	}
	if err := json.Unmarshal(b.Body.Bytes(), &gb); err != nil || b.Code != 200 {
		t.Fatalf("coordinator buffered grid: %d %v\n%s", b.Code, err, b.Body)
	}
	if len(ga.Results) != 4 || len(gb.Results) != 4 {
		t.Fatalf("buffered grids returned %d and %d results, want 4", len(ga.Results), len(gb.Results))
	}
	for i := range ga.Results {
		if !bytes.Equal(ga.Results[i], gb.Results[i]) {
			t.Errorf("buffered cell %d differs:\n%s\nvs\n%s", i, ga.Results[i], gb.Results[i])
		}
	}
	if ga.Stats == nil || gb.Stats != nil {
		t.Errorf("stats blocks: standalone %v, coordinator %v; want only the standalone's", ga.Stats, gb.Stats)
	}

	// Streamed: the invalid cell is an error line on both roles, and every
	// line matches by index.
	sa, suma := streamLines(t, send(standalone, "POST", "/v1/grid", grid, NDJSONContentType).Body.Bytes())
	sb, sumb := streamLines(t, send(routed, "POST", "/v1/grid", grid, NDJSONContentType).Body.Bytes())
	if len(sa) != 4 || len(sb) != 4 {
		t.Fatalf("streamed %d and %d cells, want 4", len(sa), len(sb))
	}
	for i := range 4 {
		if !bytes.Equal(sa[i], sb[i]) {
			t.Errorf("streamed cell %d differs:\n%s\nvs\n%s", i, sa[i], sb[i])
		}
	}
	if !bytes.Contains(sa[3], []byte(`"field":"policy"`)) {
		t.Errorf("invalid streamed cell = %s, want a policy field error", sa[3])
	}
	for _, s := range []GridSummary{suma, sumb} {
		if s.Cells != 4 || s.OK != 3 || s.Errors != 1 {
			t.Errorf("summary = %+v, want 3 ok and 1 error", s)
		}
	}
	if suma.Stats == nil || sumb.Stats != nil {
		t.Errorf("summary stats: standalone %v, coordinator %v; want only the standalone's", suma.Stats, sumb.Stats)
	}
}

// TestCancelledGridAnswersHonestly sends grids on an already-cancelled
// request context to both backends.  A buffered grid fails with the
// context's 503, never a 200 of null cells; a streamed grid gives every cell
// an error line, and its summary has ok + errors == cells.
func TestCancelledGridAnswersHonestly(t *testing.T) {
	body := `{"requests":[{"synth":{"seed":1,"ops":2048}},{"synth":{"seed":2,"ops":2048}}]}`
	for _, role := range []struct {
		name string
		h    http.Handler
	}{
		{"standalone", NewLocal(sim.NewSession(sim.WithWorkers(2)), nil).Handler()},
		{"coordinator", routedFleet(t, map[string]string{"w1": realWorker(t).URL}).Handler()},
	} {
		for _, accept := range []string{"", NDJSONContentType} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req := httptest.NewRequest(http.MethodPost, "/v1/grid", strings.NewReader(body)).WithContext(ctx)
			req.Header.Set("Accept", accept)
			rec := httptest.NewRecorder()
			role.h.ServeHTTP(rec, req)
			if accept == "" {
				if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
					t.Errorf("%s buffered: %d %s, want a 503 naming the cancellation", role.name, rec.Code, rec.Body)
				}
				continue
			}
			cells, summary := decodeStream(t, rec.Body)
			if len(cells) != 2 || summary.Cells != 2 || summary.OK+summary.Errors != 2 {
				t.Errorf("%s streamed: %d cell lines, summary %+v; want every cell accounted for", role.name, len(cells), summary)
			}
			for _, cell := range cells {
				if cell.Error == "" {
					t.Errorf("%s streamed: cell %d succeeded on a dead context", role.name, cell.Index)
				}
			}
		}
	}
}

// TestRemoteBackendFaults injects faults with real HTTP workers beside one
// healthy worker: a worker that cuts its 200 body short of its
// Content-Length, one that hangs up before answering, one that resets the
// connection partway through its headers, and one that answers 500.  Under
// buffered and streamed grids, every routed cell equals a direct session run
// or is a structured error naming the worker.  A transport fault demotes the
// worker and reroutes its cells; a 500 is an answer, so it neither demotes
// nor reroutes.
func TestRemoteBackendFaults(t *testing.T) {
	const cells = 8
	var bodies []string
	want := make([][]byte, cells)
	direct := NewLocal(sim.NewSession(), nil)
	for i := range cells {
		bodies = append(bodies, fmt.Sprintf(`{"synth":{"seed":%d,"ops":2048},"stages":4}`, i+1))
		var req sim.Request
		if err := json.Unmarshal([]byte(bodies[i]), &req); err != nil {
			t.Fatal(err)
		}
		doc, err := direct.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = compact(t, doc)
	}
	grid := `{"requests":[` + strings.Join(bodies, ",") + `]}`
	good := realWorker(t)

	// hijack writes reply on the raw connection and closes it.  With rst it
	// first sets the linger to zero, so the close sends a TCP RST instead of
	// an orderly FIN.
	hijack := func(w http.ResponseWriter, reply string, rst bool) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		buf.WriteString(reply) //nolint:errcheck // the connection is torn down next
		buf.Flush()            //nolint:errcheck
		if rst {
			if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
				t.Errorf("linger: %v", err)
			}
		}
		conn.Close()
	}
	for _, fault := range []struct {
		name      string
		reply     http.HandlerFunc
		transport bool
	}{
		{"truncated", func(w http.ResponseWriter, r *http.Request) {
			hijack(w, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"cycles\": 12", false)
		}, true},
		{"unframed", func(w http.ResponseWriter, r *http.Request) {
			hijack(w, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: close\r\n\r\n{\"cycles\": 12", false)
		}, true},
		{"hang-up", func(w http.ResponseWriter, r *http.Request) { hijack(w, "", false) }, true},
		{"reset", func(w http.ResponseWriter, r *http.Request) {
			hijack(w, "HTTP/1.1 200 OK\r\nContent-Type: appli", true)
		}, true},
		{"500", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "boom"})
		}, false},
	} {
		if fault.transport {
			// A /v1/simulate whose only worker fails this way ends in a
			// structured error, never in the worker's partial reply: a 503
			// naming the worker and its failure.
			bad := httptest.NewServer(fault.reply)
			c := routedFleet(t, map[string]string{"bad": bad.URL})
			rec := send(c.Handler(), "POST", "/v1/simulate", bodies[0], "")
			bad.Close()
			var resp ErrorResponse
			if rec.Code == http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Error == "" {
				t.Errorf("%s simulate: status %d, body %s; want a structured error", fault.name, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(resp.Error, ErrNoWorkers.Error()+" (last tried bad: ") {
				t.Errorf("%s simulate: status %d, error %q; want a 503 naming worker bad and its failure", fault.name, rec.Code, resp.Error)
			}
		}
		for _, accept := range []string{"", NDJSONContentType} {
			bad := httptest.NewServer(fault.reply)
			c := routedFleet(t, map[string]string{"good": good.URL, "bad": bad.URL})
			rec := send(c.Handler(), "POST", "/v1/grid", grid, accept)
			bad.Close()
			name := fault.name + " buffered"
			var results []json.RawMessage
			var errs []string
			if accept == "" {
				var resp struct {
					Results []json.RawMessage `json:"results"`
					Error   string            `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s: %d %v\n%s", name, rec.Code, err, rec.Body)
				}
				results = resp.Results
				if resp.Error != "" {
					errs = append(errs, resp.Error)
				}
				wantCode := http.StatusOK
				if !fault.transport {
					wantCode = http.StatusBadGateway
				}
				if rec.Code != wantCode {
					t.Errorf("%s: status %d, want %d: %s", name, rec.Code, wantCode, rec.Body)
				}
			} else {
				name = fault.name + " streamed"
				lines, summary := decodeStream(t, rec.Body)
				results = make([]json.RawMessage, cells)
				for _, cell := range lines {
					results[cell.Index] = cell.Result
					if cell.Error != "" {
						errs = append(errs, cell.Error)
					}
				}
				if len(lines) != cells || summary.OK+summary.Errors != cells || summary.Errors != len(errs) {
					t.Errorf("%s: %d lines, summary %+v, %d error lines", name, len(lines), summary, len(errs))
				}
			}
			for i, res := range results {
				if res != nil && !bytes.Equal(compact(t, res), want[i]) {
					t.Errorf("%s: cell %d differs from the direct run:\n%s", name, i, res)
				}
			}
			for _, e := range errs {
				if !strings.Contains(e, "worker bad returned 500") {
					t.Errorf("%s: error %q does not name the failing worker", name, e)
				}
			}
			st := c.Stats()
			if fault.transport {
				if len(errs) != 0 || len(results) != cells || st.Rerouted == 0 || c.Registry().Healthy() != 1 {
					t.Errorf("%s: %d errors, %d results, %d reroutes, %d healthy; want every cell rerouted to the healthy worker",
						name, len(errs), len(results), st.Rerouted, c.Registry().Healthy())
				}
			} else if len(errs) == 0 || st.Rerouted != 0 || c.Registry().Healthy() != 2 {
				t.Errorf("%s: %d errors, %d reroutes, %d healthy; want the 500s reported, not rerouted",
					name, len(errs), st.Rerouted, c.Registry().Healthy())
			}
		}
	}
}

// garbled is a Backend whose every reply is a document cut short, as from a
// worker that closes an unframed 200 mid-body: nothing at the HTTP layer
// marks it incomplete.
type garbled struct{}

func (garbled) Simulate(context.Context, sim.Request) ([]byte, error) {
	return []byte(`{"cycles": 12`), nil
}

func (g garbled) Grid(ctx context.Context, reqs []sim.Request) ([]json.RawMessage, error) {
	docs := make([]json.RawMessage, len(reqs))
	for i := range docs {
		docs[i], _ = g.Simulate(ctx, reqs[i])
	}
	return docs, nil
}

func (garbled) SessionStats() *sim.Stats { return nil }
func (garbled) Health() any              { return nil }
func (garbled) Statz() any               { return nil }

// TestGridNeverServesMalformedReplies checks that a grid cell whose reply is
// not JSON is never served as a result: the buffered grid fails as a 500
// instead of a truncated 200, and the streamed cell becomes an error line
// that the summary counts.
func TestGridNeverServesMalformedReplies(t *testing.T) {
	h := newMux(garbled{}, nil, 2)
	body := `{"requests":[{"bench":"compress"},{"bench":"sc"}]}`
	if rec := send(h, "POST", "/v1/grid", body, ""); rec.Code != http.StatusInternalServerError || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("buffered grid of malformed replies: %d %s, want a structured 500", rec.Code, rec.Body)
	}
	cells, summary := decodeStream(t, send(h, "POST", "/v1/grid", body, NDJSONContentType).Body)
	if len(cells) != 2 || summary.OK != 0 || summary.Errors != 2 {
		t.Errorf("streamed grid of malformed replies: %d lines, summary %+v; want two error lines", len(cells), summary)
	}
	for _, cell := range cells {
		if cell.Error == "" || cell.Result != nil {
			t.Errorf("cell %d = %+v, want an error line", cell.Index, cell)
		}
	}
}
