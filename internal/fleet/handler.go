package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memdep/sim"
)

// MaxGridRequests bounds one /v1/grid call; larger studies are split into
// several grids.
const MaxGridRequests = 1024

// maxBodyBytes bounds a request body; the largest legitimate payload (a full
// grid of requests) is a few kilobytes, so 1 MiB is generous headroom while
// keeping a hostile body from buffering unbounded memory.
const maxBodyBytes = 1 << 20

// NDJSONContentType is the media type of a streaming grid response: one
// JSON document per line, cells in completion order, a trailing summary.
const NDJSONContentType = "application/x-ndjson"

// Backend is what the one HTTP handler set needs from a role.  Local serves
// the standalone and worker roles from an in-process sim.Session, and
// *Coordinator routes to a fleet of workers.  The handler validates every
// request before it reaches Simulate or Grid.
type Backend interface {
	// Simulate runs one request and returns the exact document
	// POST /v1/simulate serves.
	Simulate(ctx context.Context, req sim.Request) ([]byte, error)
	// Grid runs a grid all-or-nothing; results[i] is the document of
	// reqs[i].
	Grid(ctx context.Context, reqs []sim.Request) ([]json.RawMessage, error)
	// SessionStats snapshots the serving session for the stats block of
	// grid responses; nil when the backend owns no session.
	SessionStats() *sim.Stats
	// Health returns the role's GET /v1/healthz body.
	Health() any
	// Statz returns the role's GET /v1/statz body.
	Statz() any
}

// ErrorResponse is the JSON shape of every non-2xx response.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
	// Fields carries per-field validation errors for malformed requests.
	Fields []sim.FieldError `json:"fields,omitempty"`
}

// Route names one registered HTTP endpoint (method + pattern); the docs
// tests assert every route appears in docs/API.md and is served.
type Route struct {
	// Method is the HTTP method the pattern is registered under.
	Method string
	// Pattern is the URL path.
	Pattern string
	// CoordinatorOnly marks the fleet membership routes.
	CoordinatorOnly bool
}

// Routes lists every endpoint: the simulation routes every role serves, then
// the membership routes only a coordinator adds.
func Routes() []Route {
	return []Route{
		{Method: "POST", Pattern: "/v1/simulate"},
		{Method: "POST", Pattern: "/v1/grid"},
		{Method: "GET", Pattern: "/v1/benchmarks"},
		{Method: "GET", Pattern: "/v1/healthz"},
		{Method: "GET", Pattern: "/v1/statz"},
		{Method: "POST", Pattern: "/v1/fleet/register", CoordinatorOnly: true},
		{Method: "POST", Pattern: "/v1/fleet/deregister", CoordinatorOnly: true},
		{Method: "GET", Pattern: "/v1/fleet/workers", CoordinatorOnly: true},
	}
}

// gridRequest is the body of POST /v1/grid.  Stream asks for NDJSON
// output, as the Accept: application/x-ndjson header does.
type gridRequest struct {
	Requests []sim.Request `json:"requests"`
	Stream   bool          `json:"stream,omitempty"`
}

// gridResponse is the body of a buffered POST /v1/grid.
type gridResponse struct {
	Results []json.RawMessage `json:"results"`
	Stats   *sim.Stats        `json:"stats,omitempty"`
}

// GridCell is one line of a streaming grid response: the positional index
// of the cell in the request, and either its result or its error.
type GridCell struct {
	// Index is the cell's position in the request's Requests array.
	Index int `json:"index"`
	// Result is the cell's sim.Result, present on success.
	Result json.RawMessage `json:"result,omitempty"`
	// Error describes the cell's failure, present instead of Result.
	Error string `json:"error,omitempty"`
	// Fields carries per-field validation errors for an invalid cell.
	Fields []sim.FieldError `json:"fields,omitempty"`
}

// GridSummary is the payload of the trailing record of a streaming grid
// response.
type GridSummary struct {
	// Cells is the number of requested cells.
	Cells int `json:"cells"`
	// OK counts cells that returned a result.
	OK int `json:"ok"`
	// Errors counts cells that returned an error line.
	Errors int `json:"errors"`
	// ElapsedMS is the wall-clock duration of the whole grid.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Stats snapshots the serving session's cache counters; standalone and
	// worker servers fill it, the coordinator (which owns no session)
	// omits it.
	Stats *sim.Stats `json:"stats,omitempty"`
}

// GridSummaryLine wraps the summary so the trailing record is structurally
// distinguishable from cell records ({"summary": {...}} vs {"index": ...}).
type GridSummaryLine struct {
	// Summary is the grid's closing accounting.
	Summary GridSummary `json:"summary"`
}

// benchmarksResponse is the body of GET /v1/benchmarks.
type benchmarksResponse struct {
	Benchmarks []sim.Benchmark `json:"benchmarks"`
}

// handler is the one handler set behind the simulation routes of every
// role: it decodes and validates requests, applies admission, runs them on
// its backend and encodes the answers.
type handler struct {
	b   Backend
	lim *Limiter
	// fanout bounds the cells of one streamed grid in flight at once.
	fanout int
}

// newMux serves the simulation routes over b, admitting simulate and grid
// requests through lim (nil admits everything).
func newMux(b Backend, lim *Limiter, fanout int) *http.ServeMux {
	h := &handler{b: b, lim: lim, fanout: fanout}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", h.simulate)
	mux.HandleFunc("POST /v1/grid", h.grid)
	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, benchmarksResponse{Benchmarks: sim.Benchmarks()})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Health())
	})
	mux.HandleFunc("GET /v1/statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Statz())
	})
	return mux
}

// simulate runs one simulation: POST /v1/simulate {"bench": ...}.  An
// invalid body is a 400 before admission is consulted, so even a saturated
// server names the bad fields.
func (h *handler) simulate(w http.ResponseWriter, r *http.Request) {
	var req sim.Request
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, err)
		return
	}
	release, err := h.lim.Acquire(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	doc, err := h.b.Simulate(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeDoc(w, http.StatusOK, "application/json", doc)
}

// grid runs a request grid: POST /v1/grid {"requests": [...]}.  Buffered
// (the default) is all-or-nothing, and every cell is validated before
// admission.  With "stream": true or Accept: application/x-ndjson, each cell
// is an NDJSON line written the moment it completes, invalid cells
// included, then a summary record.
func (h *handler) grid(w http.ResponseWriter, r *http.Request) {
	var greq gridRequest
	if !decodeBody(w, r, &greq) {
		return
	}
	if errResp := checkGridShape(len(greq.Requests)); errResp != nil {
		writeJSON(w, http.StatusBadRequest, errResp)
		return
	}
	stream := greq.Stream || strings.Contains(r.Header.Get("Accept"), NDJSONContentType)
	if !stream {
		for i, req := range greq.Requests {
			if err := req.Validate(); err != nil {
				writeError(w, fmt.Errorf("request %d: %w", i, err))
				return
			}
		}
	}
	release, err := h.lim.Acquire(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	if stream {
		h.streamGrid(r.Context(), w, greq.Requests)
		return
	}
	results, err := h.b.Grid(r.Context(), greq.Requests)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, gridResponse{Results: results, Stats: h.b.SessionStats()})
}

// streamGrid runs every cell through Simulate, at most h.fanout at once, and
// writes each as an NDJSON line the moment it completes.  Cell failures are
// per-line, not fatal.  Every cell gets exactly one line, even after the
// context dies, so the summary always has ok + errors == cells.
func (h *handler) streamGrid(ctx context.Context, w http.ResponseWriter, reqs []sim.Request) {
	sw := newStreamWriter(w)
	start := time.Now()
	var failed atomic.Int64
	eachCell(len(reqs), h.fanout, func(i int) {
		cell := GridCell{Index: i}
		err := reqs[i].Validate()
		if err == nil {
			cell.Result, err = h.b.Simulate(ctx, reqs[i])
		}
		if err == nil {
			if err = sw.write(cell); err == nil {
				return
			}
			cell.Result = nil // a worker's 200 reply that is not JSON
		}
		failed.Add(1)
		cell.Error = err.Error()
		var verr *sim.ValidationError
		if errors.As(err, &verr) {
			cell.Fields = verr.Fields
		}
		sw.write(cell) //nolint:errcheck // an error cell always encodes
	})
	errs := int(failed.Load())
	sw.write(GridSummaryLine{Summary: GridSummary{ //nolint:errcheck // a summary always encodes
		Cells:     len(reqs),
		OK:        len(reqs) - errs,
		Errors:    errs,
		ElapsedMS: time.Since(start).Milliseconds(),
		Stats:     h.b.SessionStats(),
	}})
}

// eachCell calls fn for every cell index, at most fanout calls at once, and
// returns when all have.
func eachCell(n, fanout int, fn func(i int)) {
	sem := make(chan struct{}, fanout)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// checkGridShape returns the 400 body for a grid of n cells, or nil when the
// count is within bounds.
func checkGridShape(n int) *ErrorResponse {
	var field sim.FieldError
	switch {
	case n == 0:
		field = sim.FieldError{Field: "requests", Msg: "at least one request is required"}
	case n > MaxGridRequests:
		field = sim.FieldError{Field: "requests", Value: fmt.Sprint(n), Msg: fmt.Sprintf("a grid is limited to %d requests", MaxGridRequests)}
	default:
		return nil
	}
	return &ErrorResponse{Error: "invalid request: requests: " + field.Msg, Fields: []sim.FieldError{field}}
}

// decodeBody decodes a JSON request body strictly: the size is capped and
// unknown fields are rejected, so typos in configuration names fail loudly
// instead of silently simulating the default.  It writes the 400 itself on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("malformed request body: %v", err)})
		return false
	}
	return true
}

// indentJSON encodes v the way every JSON response is served: two-space
// indented and newline-terminated.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writeJSON writes v as an indented JSON response with the given status.  A
// value that does not encode -- a grid holding a worker's malformed reply --
// is a 500, never a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	doc, err := indentJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		doc, _ = indentJSON(ErrorResponse{Error: err.Error()})
	}
	writeDoc(w, status, "application/json", doc)
}

// writeDoc writes an encoded document with the given status and content
// type.
func writeDoc(w http.ResponseWriter, status int, contentType string, doc []byte) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(status)
	w.Write(doc) //nolint:errcheck // the client is gone if this fails
}

// writeError maps an error to its HTTP shape: validation failures are
// structured 400s, overload is 429 with Retry-After, an empty fleet is 503
// with Retry-After, cancellation is 503, a worker's own error reply is
// relayed unchanged, a grid cell that failed on the fleet is 502, and
// anything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	var verr *sim.ValidationError
	var oerr *OverloadError
	var werr *workerError
	switch {
	case errors.As(err, &verr):
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Fields: verr.Fields})
	case errors.As(err, &oerr):
		w.Header().Set("Retry-After", strconv.Itoa(int(oerr.RetryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrNoWorkers):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The request context died: the response writer is dead too, but
		// flush a status for the tests and any proxy still listening.
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.As(err, &werr):
		writeDoc(w, werr.status, werr.contentType, werr.body)
	case errors.As(err, new(*forwardError)):
		writeJSON(w, http.StatusBadGateway, ErrorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

// streamWriter serializes NDJSON records onto an HTTP response, one per
// line, flushing after each so cells reach the client the moment they
// complete.  Safe for concurrent use.
type streamWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
}

// newStreamWriter sets the NDJSON content type and wraps the writer.
func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", NDJSONContentType)
	return &streamWriter{w: w}
}

// write marshals one record onto its own line and flushes.  It fails only
// when v does not encode: a failed write means the client has gone, which
// cancels the request context.
func (s *streamWriter) write(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(data, '\n')); err == nil {
		http.NewResponseController(s.w).Flush() //nolint:errcheck // as for Write
	}
	return nil
}
