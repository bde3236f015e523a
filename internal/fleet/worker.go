package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// AgentConfig configures a worker's registration Agent.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL (required), e.g.
	// "http://10.0.0.1:8080".
	Coordinator string
	// Name is the worker's unique fleet name (required).
	Name string
	// URL is the worker's own advertised base URL (required); the
	// coordinator proxies requests to it and probes <URL>/v1/healthz.
	URL string
	// Interval is the heartbeat period (0 = 2s).  Each heartbeat is a full
	// re-registration, so a restarted coordinator relearns its fleet within
	// one interval.
	Interval time.Duration
	// Logf receives registration-loop events (nil = discard).
	Logf func(format string, args ...any)
}

// agentClient issues every membership call; a coordinator that does not
// answer within 5s is retried on the next heartbeat.
var agentClient = &http.Client{Timeout: 5 * time.Second}

// Agent is the worker side of fleet membership: it registers the worker
// with the coordinator, re-registers on an interval as a heartbeat, and
// deregisters (drains) on shutdown.  Run it in its own goroutine for the
// life of the worker process.
type Agent struct {
	cfg AgentConfig
}

// NewAgent validates the config and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	for _, f := range []struct{ name, val string }{
		{"coordinator", cfg.Coordinator},
		{"name", cfg.Name},
		{"url", cfg.URL},
	} {
		if f.val == "" {
			return nil, fmt.Errorf("fleet: agent %s must not be empty", f.name)
		}
	}
	for _, f := range []struct{ name, val string }{
		{"coordinator", cfg.Coordinator},
		{"url", cfg.URL},
	} {
		u, err := url.Parse(f.val)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: agent %s %q is not an absolute URL", f.name, f.val)
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Agent{cfg: cfg}, nil
}

// Run registers immediately, re-registers every Interval, and deregisters
// when the context is cancelled.  It returns after the deregistration
// attempt.  Registration failures are logged and retried on the next tick:
// a coordinator that is down or restarting is expected, not fatal.
func (a *Agent) Run(ctx context.Context) {
	if err := a.RegisterOnce(ctx); err != nil && !errors.Is(err, context.Canceled) {
		a.cfg.Logf("fleet: register %s with %s: %v", a.cfg.Name, a.cfg.Coordinator, err)
	}
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			// Drain: leave the registry so no new request routes here
			// while the server's own graceful shutdown finishes the
			// in-flight ones.  Best effort, on a fresh context -- ours is
			// already cancelled.
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := a.Deregister(dctx); err != nil {
				a.cfg.Logf("fleet: deregister %s: %v", a.cfg.Name, err)
			}
			return
		case <-t.C:
			if err := a.RegisterOnce(ctx); err != nil && !errors.Is(err, context.Canceled) {
				a.cfg.Logf("fleet: heartbeat %s: %v", a.cfg.Name, err)
			}
		}
	}
}

// RegisterOnce performs one registration (also the heartbeat).
func (a *Agent) RegisterOnce(ctx context.Context) error {
	return a.post(ctx, "/v1/fleet/register", RegisterRequest{Name: a.cfg.Name, URL: a.cfg.URL})
}

// Deregister drains the worker: it leaves the coordinator's registry, so
// no new request routes to it.
func (a *Agent) Deregister(ctx context.Context) error {
	return a.post(ctx, "/v1/fleet/deregister", DeregisterRequest{Name: a.cfg.Name})
}

// post sends one membership call and checks for a 2xx.
func (a *Agent) post(ctx context.Context, path string, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, reply, err := postPayload(ctx, agentClient, a.cfg.Coordinator+path, payload)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s returned %d: %s", path, resp.StatusCode, strings.TrimSpace(truncate(reply, 512)))
	}
	return nil
}
