package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"memdep/sim"
)

// maxProxiedBody caps a relayed worker response; the largest legitimate
// result (a fully annotated simulation) is well under a megabyte.
const maxProxiedBody = 64 << 20

// gridFanout bounds how many cells of one grid are proxied at once.
const gridFanout = 16

// Config configures a Coordinator.  The zero value selects the defaults
// documented on each field.
type Config struct {
	// Registry configures the worker registry (TTL, probe, clock).
	Registry RegistryConfig
	// HealthInterval is the period of the background health-check loop
	// (0 = 2s).
	HealthInterval time.Duration
	// MaxInflight bounds concurrently admitted requests (0 = 64,
	// negative = unlimited).
	MaxInflight int
	// MaxQueue bounds requests waiting for an in-flight slot (0 = 256,
	// negative = no queue).
	MaxQueue int
}

// Coordinator is the Backend of the coordinator role: it rendezvous-routes
// each request on its canonical normalized JSON and proxies it to the
// owning worker with failover.  It owns no session.
// Create one with NewCoordinator and serve Handler(); Close stops the
// health-check loop.
type Coordinator struct {
	reg *Registry
	lim *Limiter

	cancel context.CancelFunc
	done   chan struct{}

	routed     atomic.Uint64
	rerouted   atomic.Uint64
	unroutable atomic.Uint64
}

// CoordinatorStats is the body of a coordinator's GET /v1/statz.
type CoordinatorStats struct {
	// Role is always "coordinator".
	Role string `json:"role"`
	// Workers snapshots the registry, sorted by name.
	Workers []Worker `json:"workers"`
	// Healthy counts the workers requests currently route to.
	Healthy int `json:"healthy"`
	// Routed counts proxied requests (grid cells count individually).
	Routed uint64 `json:"routed"`
	// Rerouted counts failovers: a forward that failed at the transport
	// level and was retried on the worker of next-highest rendezvous
	// weight.
	Rerouted uint64 `json:"rerouted"`
	// Unroutable counts requests that found no healthy worker at all.
	Unroutable uint64 `json:"unroutable"`
	// Admission snapshots the limiter.
	Admission LimiterStats `json:"admission"`
}

// CoordinatorHealth is the body of a coordinator's GET /v1/healthz.
type CoordinatorHealth struct {
	// Status is "ok" whenever the coordinator itself is serving; a
	// degraded fleet shows up in Healthy, not here.
	Status string `json:"status"`
	// Role is always "coordinator".
	Role string `json:"role"`
	// Workers counts registered workers, healthy or not.
	Workers int `json:"workers"`
	// Healthy counts the workers requests currently route to.
	Healthy int `json:"healthy"`
}

// RegisterRequest is the body of POST /v1/fleet/register (and the periodic
// heartbeat workers re-send).
type RegisterRequest struct {
	// Name uniquely identifies the worker in the registry.
	Name string `json:"name"`
	// URL is the worker's base URL, e.g. "http://10.0.0.7:8081".
	URL string `json:"url"`
}

// DeregisterRequest is the body of POST /v1/fleet/deregister.
type DeregisterRequest struct {
	// Name is the registry key to remove.
	Name string `json:"name"`
}

// MembershipResponse answers the fleet membership endpoints.
type MembershipResponse struct {
	// Status is "ok".
	Status string `json:"status"`
	// Workers counts registered workers after the operation.
	Workers int `json:"workers"`
	// Healthy counts the workers requests route to after the operation.
	Healthy int `json:"healthy"`
}

// WorkersResponse is the body of GET /v1/fleet/workers.
type WorkersResponse struct {
	// Workers snapshots the registry, sorted by name.
	Workers []Worker `json:"workers"`
	// Healthy counts the workers requests currently route to.
	Healthy int `json:"healthy"`
}

// NewCoordinator builds a coordinator and starts its background
// health-check loop; Close stops it.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 256
	}
	c := &Coordinator{
		reg:  NewRegistry(cfg.Registry),
		lim:  NewLimiter(cfg.MaxInflight, cfg.MaxQueue),
		done: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go func() {
		defer close(c.done)
		c.reg.Run(ctx, cfg.HealthInterval)
	}()
	return c
}

// Close stops the health-check loop.  In-flight proxied requests are not
// interrupted.
func (c *Coordinator) Close() {
	c.cancel()
	<-c.done
}

// Registry exposes the worker registry; tests reach membership through it.
func (c *Coordinator) Registry() *Registry { return c.reg }

// Stats snapshots the coordinator's routing and admission counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Role:       "coordinator",
		Workers:    c.reg.Snapshot(),
		Healthy:    c.reg.Healthy(),
		Routed:     c.routed.Load(),
		Rerouted:   c.rerouted.Load(),
		Unroutable: c.unroutable.Load(),
		Admission:  c.lim.Stats(),
	}
}

// Handler serves the simulation routes over the fleet, plus the membership
// routes.
func (c *Coordinator) Handler() http.Handler {
	mux := newMux(c, c.lim, gridFanout)
	mux.HandleFunc("POST /v1/fleet/register", c.handleRegister)
	mux.HandleFunc("POST /v1/fleet/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/fleet/workers", c.handleWorkers)
	return mux
}

// forwardError is a grid cell that failed on the fleet; it maps to
// 502 Bad Gateway.
type forwardError struct {
	msg string
}

// Error implements the error interface.
func (e *forwardError) Error() string { return e.msg }

// workerError is a worker's reply other than 200.  The error writer relays
// it to the client unchanged; as a grid cell it names the worker.
type workerError struct {
	worker      string
	status      int
	contentType string
	body        []byte
}

// Error implements the error interface.
func (e *workerError) Error() string {
	return fmt.Sprintf("worker %s returned %d: %s", e.worker, e.status, truncate(e.body, 512))
}

// Simulate proxies req to the worker owning its canonical normalized JSON
// and returns the worker's reply verbatim.  Transport errors walk the
// failover order, the workers in descending rendezvous weight, demoting
// each worker that failed; when the walk runs out, the error wraps
// ErrNoWorkers and names the last worker tried and its failure.  A reply of
// any status ends the walk: the worker is alive, and retrying elsewhere
// would duplicate work.
func (c *Coordinator) Simulate(ctx context.Context, req sim.Request) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := req.CanonicalJSON()
	c.routed.Add(1)
	var tried map[string]bool // built on the first failover
	var last string           // the last worker tried, and lastErr its failure
	var lastErr error
	for {
		wkr, err := c.reg.Route(key, tried)
		if err != nil {
			c.unroutable.Add(1)
			if lastErr != nil {
				err = fmt.Errorf("%w (last tried %s: %v)", err, last, lastErr)
			}
			return nil, err
		}
		// No overall timeout: a full-scale simulation legitimately takes a while.
		resp, body, err := postPayload(ctx, http.DefaultClient, wkr.URL+"/v1/simulate", []byte(key))
		switch {
		case err == nil && resp.StatusCode == http.StatusOK:
			return body, nil
		case err == nil:
			return nil, &workerError{worker: wkr.Name, status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: body}
		case ctx.Err() != nil:
			return nil, ctx.Err()
		}
		// No complete reply: the worker is unreachable.  Demote it and walk
		// on; the registry health loop revives it when it answers again.
		if tried == nil {
			tried = make(map[string]bool)
		}
		tried[wkr.Name] = true
		last, lastErr = wkr.Name, err
		c.reg.ReportFailure(wkr.Name)
		c.rerouted.Add(1)
	}
}

// postPayload posts a JSON payload and reads the whole reply (up to
// maxProxiedBody), closing its body.  An error means no complete reply
// arrived: a body cut short of its Content-Length or chunked framing is a
// transport error.  A reply with neither framing ends where the worker
// closed the connection, which a crash mid-body also does, so it counts as
// complete only when it is a whole JSON document.  A real worker's replies
// are chunked or carry a length, so they skip the check.
func postPayload(ctx context.Context, client *http.Client, url string, payload []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxiedBody))
	if err == nil && resp.ContentLength < 0 && len(resp.TransferEncoding) == 0 && !json.Valid(body) {
		err = fmt.Errorf("fleet: unframed reply from %s is not a whole JSON document", url)
	}
	return resp, body, err
}

// Grid proxies every cell, at most gridFanout at once.  It is
// all-or-nothing: a dead context fails the grid with the context's error,
// and any failed cell fails it with a 502 naming the cell.
func (c *Coordinator) Grid(ctx context.Context, reqs []sim.Request) ([]json.RawMessage, error) {
	docs := make([]json.RawMessage, len(reqs))
	errs := make([]error, len(reqs))
	eachCell(len(reqs), gridFanout, func(i int) {
		docs[i], errs[i] = c.Simulate(ctx, reqs[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, &forwardError{msg: fmt.Sprintf("cell %d: %v", i, err)}
		}
	}
	return docs, nil
}

// SessionStats is nil: a coordinator owns no session, so its grid responses
// carry no stats block.
func (c *Coordinator) SessionStats() *sim.Stats { return nil }

// Health reports coordinator liveness and fleet capacity.
func (c *Coordinator) Health() any {
	return CoordinatorHealth{Status: "ok", Role: "coordinator", Workers: c.reg.Len(), Healthy: c.reg.Healthy()}
}

// Statz reports the routing and admission counters.
func (c *Coordinator) Statz() any { return c.Stats() }

// handleRegister admits a worker into the fleet (idempotent; workers
// re-send it as their heartbeat).
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.reg.Register(req.Name, req.URL); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, MembershipResponse{Status: "ok", Workers: c.reg.Len(), Healthy: c.reg.Healthy()})
}

// handleDeregister drains a worker: no new request routes to it.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.reg.Deregister(req.Name)
	writeJSON(w, http.StatusOK, MembershipResponse{Status: "ok", Workers: c.reg.Len(), Healthy: c.reg.Healthy()})
}

// handleWorkers lists the registry.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, WorkersResponse{Workers: c.reg.Snapshot(), Healthy: c.reg.Healthy()})
}

// truncate clips a relayed body for inclusion in an error message.
func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
