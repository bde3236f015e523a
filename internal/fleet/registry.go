package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// ErrNoWorkers is returned by Registry.Route when the fleet has no healthy
// worker to route to; the coordinator maps it to a 503.
var ErrNoWorkers = errors.New("fleet: no healthy workers registered")

// Probe checks one worker's liveness; the default probe issues
// GET <url>/v1/healthz and treats any 2xx as alive.  Tests inject their own.
type Probe func(ctx context.Context, url string) error

// Worker is a point-in-time snapshot of one registered worker, as served by
// GET /v1/fleet/workers.
type Worker struct {
	// Name is the worker's unique registry key.
	Name string `json:"name"`
	// URL is the base URL requests are proxied to.
	URL string `json:"url"`
	// Healthy reports whether the worker is currently in the routing ring.
	Healthy bool `json:"healthy"`
	// LastSeen is the time of the last successful registration, heartbeat
	// or health check.
	LastSeen time.Time `json:"last_seen"`
	// Failures counts consecutive failed health checks or proxied requests
	// since the worker was last seen healthy.
	Failures int `json:"failures,omitempty"`
	// Routed counts the requests routed to this worker since it registered.
	Routed uint64 `json:"routed"`
}

// workerState is the registry's mutable record of one worker.
type workerState struct {
	name     string
	url      string
	healthy  bool
	lastSeen time.Time
	failures int
	routed   uint64
}

// RegistryConfig configures a Registry.  The zero value selects the
// defaults documented on each field.
type RegistryConfig struct {
	// TTL is how long a worker may go without a successful registration,
	// heartbeat or health check before it is dropped from the registry
	// entirely (0 = 30s).  Unhealthy-but-recent workers stay registered --
	// and revive on the next passing check -- only silent ones are pruned.
	TTL time.Duration
	// Probe checks a worker's liveness (nil = GET /v1/healthz with a 2s
	// timeout).
	Probe Probe
	// Now supplies the clock (nil = time.Now); tests freeze it.
	Now func() time.Time
}

// Registry is the coordinator's worker set: membership, health, and the
// consistent-hash ring over the healthy members.  All methods are safe for
// concurrent use.
type Registry struct {
	cfg RegistryConfig

	mu sync.RWMutex
	//memdep:guardedby mu
	workers map[string]*workerState
	// ring spans exactly the healthy workers; rebuilt on every membership
	// or health transition.
	//memdep:guardedby mu
	ring *ring
}

// NewRegistry creates an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.TTL <= 0 {
		cfg.TTL = 30 * time.Second
	}
	if cfg.Probe == nil {
		cfg.Probe = httpProbe
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Registry{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		ring:    buildRing(nil),
	}
}

// httpProbe is the default liveness probe: GET <url>/v1/healthz, any 2xx
// within 2 seconds is alive.
func httpProbe(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return nil
}

// Register adds a worker (or refreshes an existing one: workers re-register
// periodically as their heartbeat, which also repopulates a restarted
// coordinator's registry).  Registration marks the worker healthy
// immediately; the next health-check pass demotes it if it lied.
func (r *Registry) Register(name, rawURL string) error {
	if name == "" {
		return errors.New("fleet: worker name must not be empty")
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fleet: worker url %q is not an absolute URL", rawURL)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[name]
	if w == nil {
		w = &workerState{name: name}
		r.workers[name] = w
	}
	rebuild := !w.healthy || w.url != rawURL
	w.url = rawURL
	w.healthy = true
	w.failures = 0
	w.lastSeen = r.cfg.Now()
	if rebuild {
		r.rebuildLocked()
	}
	return nil
}

// Deregister removes a worker and reports whether it was registered.  The
// removal is the drain: the worker leaves the ring at once, so no new
// request routes to it, while requests already proxied to it run to
// completion undisturbed.
func (r *Registry) Deregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[name]; !ok {
		return false
	}
	delete(r.workers, name)
	r.rebuildLocked()
	return true
}

// Route picks the worker owning the key: the first member of the key's
// ring order that is not in tried.  Callers retrying a failed forward pass
// the names already attempted, walking the failover order.
func (r *Registry) Route(key string, tried map[string]bool) (Worker, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.ring.owners(key) {
		if tried[name] {
			continue
		}
		w := r.workers[name]
		if w == nil || !w.healthy {
			// The ring is rebuilt on health transitions, so this is a
			// transient snapshot mismatch at worst; skip.
			continue
		}
		w.routed++
		return snapshotWorker(w), nil
	}
	return Worker{}, ErrNoWorkers
}

// ReportFailure records a failed proxied request: the worker leaves the
// ring immediately (subsequent requests reroute) and stays demoted until a
// health check or re-registration passes.
func (r *Registry) ReportFailure(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[name]
	if w == nil {
		return
	}
	w.failures++
	if w.healthy {
		w.healthy = false
		r.rebuildLocked()
	}
}

// CheckOnce runs one health-check pass: every registered worker is probed,
// transitions are applied to the ring, and workers silent for longer than
// the TTL are pruned.  The Coordinator calls this on a ticker; tests call
// it directly.
func (r *Registry) CheckOnce(ctx context.Context) {
	r.mu.RLock()
	targets := make([]Worker, 0, len(r.workers))
	for _, w := range r.workers { //lint:deterministic probe order does not affect the resulting health state
		targets = append(targets, Worker{Name: w.name, URL: w.url})
	}
	r.mu.RUnlock()

	now := r.cfg.Now()
	for _, t := range targets {
		err := r.cfg.Probe(ctx, t.URL)
		r.mu.Lock()
		w := r.workers[t.Name]
		if w == nil {
			r.mu.Unlock()
			continue
		}
		switch {
		case err == nil:
			w.failures = 0
			w.lastSeen = now
			if !w.healthy {
				w.healthy = true
				r.rebuildLocked()
			}
		default:
			w.failures++
			if w.healthy {
				w.healthy = false
				r.rebuildLocked()
			}
			if now.Sub(w.lastSeen) > r.cfg.TTL {
				delete(r.workers, w.name)
				r.rebuildLocked()
			}
		}
		r.mu.Unlock()
	}
}

// Run health-checks on the given interval until the context is cancelled.
func (r *Registry) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.CheckOnce(ctx)
		}
	}
}

// Snapshot returns every registered worker, healthy or not, sorted by name.
func (r *Registry) Snapshot() []Worker {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Worker, 0, len(r.workers))
	for _, w := range r.workers { //lint:deterministic collected then sorted by name below
		out = append(out, snapshotWorker(w))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Healthy returns the number of workers currently in the routing ring.
func (r *Registry) Healthy() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, w := range r.workers { //lint:deterministic commutative count
		if w.healthy {
			n++
		}
	}
	return n
}

// Len returns the number of registered workers, healthy or not.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.workers)
}

// rebuildLocked rebuilds the ring from the healthy workers; the caller
// holds mu.
//
//memdep:locked mu
func (r *Registry) rebuildLocked() {
	names := make([]string, 0, len(r.workers))
	for name, w := range r.workers { //lint:deterministic buildRing sorts its points; ring identity is order-independent
		if w.healthy {
			names = append(names, name)
		}
	}
	r.ring = buildRing(names)
}

func snapshotWorker(w *workerState) Worker {
	return Worker{
		Name:     w.name,
		URL:      w.url,
		Healthy:  w.healthy,
		LastSeen: w.lastSeen,
		Failures: w.failures,
		Routed:   w.routed,
	}
}
