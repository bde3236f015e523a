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
	// Healthy reports whether requests currently route to the worker.
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

// Registry is the coordinator's worker set and its routing table: Route
// rendezvous-hashes a key over the healthy workers it holds.  All methods
// are safe for concurrent use.
type Registry struct {
	cfg RegistryConfig

	mu sync.RWMutex
	//memdep:guardedby mu
	workers map[string]*Worker
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
		workers: make(map[string]*Worker),
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
		w = &Worker{Name: name}
		r.workers[name] = w
	}
	w.URL = rawURL
	w.Healthy = true
	w.Failures = 0
	w.LastSeen = r.cfg.Now()
	return nil
}

// Deregister removes a worker and reports whether it was registered.  The
// removal is the drain: no new request routes to the worker, while requests
// already proxied to it run to completion undisturbed.
func (r *Registry) Deregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[name]; !ok {
		return false
	}
	delete(r.workers, name)
	return true
}

// Route picks the worker owning the key by rendezvous (highest-random-weight)
// hashing: of the healthy workers not in tried, the one whose weight
// mix64(hashString(key) ^ hashString(name)) is largest, ties going to the
// smaller name.  A key's owner therefore depends on the key and the healthy
// names alone, and a join or a leave moves only the keys the joining or
// leaving worker wins or held.  Callers retrying a failed forward pass the
// names already attempted, so failover walks the workers in descending
// weight.
func (r *Registry) Route(key string, tried map[string]bool) (Worker, error) {
	h := hashString(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	var owner *Worker
	var top uint64
	for name, w := range r.workers { //lint:deterministic a maximum over a total order (weight, then name) does not depend on the walk's order
		if !w.Healthy || tried[name] {
			continue
		}
		if wt := mix64(h ^ hashString(name)); owner == nil || wt > top || (wt == top && name < owner.Name) {
			owner, top = w, wt
		}
	}
	if owner == nil {
		return Worker{}, ErrNoWorkers
	}
	owner.Routed++
	return *owner, nil
}

// hashString is 64-bit FNV-1a: cheap, dependency-free and stable across
// platforms and Go versions, which keeps routing deterministic fleet-wide.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the murmur3 64-bit finalizer: a bijective avalanche, so the
// weights of one key under two names are unrelated even though FNV hashes
// of similar inputs are not.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ReportFailure records a failed proxied request: the worker stops
// receiving requests at once (subsequent ones reroute) and stays demoted
// until a health check or re-registration passes.
func (r *Registry) ReportFailure(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.workers[name]; w != nil {
		w.Failures++
		w.Healthy = false
	}
}

// CheckOnce runs one health-check pass: every registered worker is probed,
// its health is set from the probe, and workers silent for longer than the
// TTL are pruned.  The Coordinator calls this on a ticker; tests call it
// directly.
func (r *Registry) CheckOnce(ctx context.Context) {
	r.mu.RLock()
	targets := make([]Worker, 0, len(r.workers))
	for _, w := range r.workers { //lint:deterministic probe order does not affect the resulting health state
		targets = append(targets, *w)
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
		if err == nil {
			w.Failures = 0
			w.LastSeen = now
			w.Healthy = true
		} else {
			w.Failures++
			w.Healthy = false
			if now.Sub(w.LastSeen) > r.cfg.TTL {
				delete(r.workers, w.Name)
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
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Healthy returns the number of workers requests currently route to.
func (r *Registry) Healthy() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, w := range r.workers { //lint:deterministic commutative count
		if w.Healthy {
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
