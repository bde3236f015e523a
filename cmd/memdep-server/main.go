// Command memdep-server serves the memdep simulator as a long-running
// HTTP/JSON service on top of the public sim facade (memdep/sim).  Every
// role serves the simulation routes through internal/fleet's one handler
// set; the role picks its backend.
//
// Endpoints (standalone and worker roles):
//
//	POST /v1/simulate    run one simulation        (body: sim.Request JSON)
//	POST /v1/grid        run a simulation grid     (body: {"requests": [...]});
//	                     add "stream": true or Accept: application/x-ndjson
//	                     for one NDJSON line per cell as it completes
//	GET  /v1/benchmarks  list the workload suite
//	GET  /v1/healthz     liveness + cache counters
//	GET  /v1/statz       full session stats, persistent-store counters included
//
// A coordinator (-role coordinator) serves the same simulate/grid/benchmarks
// surface but owns no session: it rendezvous-routes each request on its
// canonical normalized JSON to the owning worker, plus the membership
// endpoints POST /v1/fleet/register, POST /v1/fleet/deregister and
// GET /v1/fleet/workers.  A worker (-role worker -coordinator URL) is a
// standalone server that additionally registers itself and heartbeats.
// docs/API.md documents every endpoint; docs/OPERATIONS.md covers running
// the topologies.
//
// Example:
//
//	memdep-server -addr :8080 &
//	curl -d '{"bench":"compress","stages":8,"policy":"ESYNC"}' localhost:8080/v1/simulate
//
// All requests share one sim.Session: concurrent clients hit the same
// memoized result cache, and each request is cancellable -- a client that
// disconnects aborts its in-flight simulation.  -jobs bounds the executing
// jobs of grids, engine-wide: every buffered grid draws from one pool of
// -jobs slots, and a streamed grid runs -jobs cells at once.  A single
// /v1/simulate runs on its request's goroutine, bounded by -max-inflight.  SIGINT/SIGTERM drain in-flight requests before exit
// (graceful shutdown); a worker deregisters from its coordinator first, so
// no new request routes to it while it drains.
//
// With -store DIR (default $MEMDEP_STORE), the session layers the persistent
// content-addressed result store under its in-memory cache, so results
// survive server restarts and are shared with the CLIs pointing at the same
// directory; GET /v1/statz exposes the store's hit/miss/corrupt counters.
//
// With -max-inflight N, at most N simulate/grid requests run at once and at
// most -max-queue more wait; beyond that the server answers 429 with a
// Retry-After estimate instead of queueing unboundedly.  Unset (0), the
// standalone server keeps its historical unbounded admission.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memdep/internal/fleet"
	"memdep/sim"
)

// config collects the parsed flag values.
type config struct {
	addr        string
	role        string
	coordinator string
	name        string
	advertise   string
	jobs        int
	drain       time.Duration
	store       string
	maxInflight int
	maxQueue    int
	heartbeat   time.Duration
	workerTTL   time.Duration
}

// newFlagSet declares the full flag surface; the docs tests enumerate it to
// hold docs/OPERATIONS.md to account.
func newFlagSet() (*flag.FlagSet, *config) {
	cfg := &config{}
	fs := flag.NewFlagSet("memdep-server", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.role, "role", "standalone", "process role: standalone, coordinator or worker")
	fs.StringVar(&cfg.coordinator, "coordinator", "", "coordinator base URL a worker registers with (required for -role worker)")
	fs.StringVar(&cfg.name, "name", "", "worker's fleet name (default: hostname + listen address)")
	fs.StringVar(&cfg.advertise, "advertise", "", "worker's own base URL as the coordinator should reach it (default: http://127.0.0.1 + the listen address)")
	fs.IntVar(&cfg.jobs, "jobs", 0, "executing jobs of grids, bounded engine-wide; a single /v1/simulate runs on its request's goroutine, bounded by -max-inflight (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-shutdown drain window for in-flight requests")
	fs.StringVar(&cfg.store, "store", os.Getenv("MEMDEP_STORE"), "persistent result-store directory shared with the CLIs; results survive restarts (default $MEMDEP_STORE; \"\" = in-memory cache only)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0, "max concurrently admitted simulate/grid requests (0 = role default: unlimited standalone/worker, 64 on a coordinator)")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "max requests waiting for an in-flight slot before 429s start (0 = role default: none standalone/worker, 256 on a coordinator)")
	fs.DurationVar(&cfg.heartbeat, "heartbeat", 2*time.Second, "fleet heartbeat: worker re-registration period and coordinator health-probe period")
	fs.DurationVar(&cfg.workerTTL, "worker-ttl", 30*time.Second, "coordinator drops a worker silent for longer than this")
	return fs, cfg
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main with its environment injected, so tests can drive it.
func run(args []string, stderr io.Writer) int {
	fs, cfg := newFlagSet()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		handler    http.Handler
		banner     string
		preDrain   func() // runs before the HTTP drain (worker deregistration)
		afterDrain func() // runs after the HTTP drain (coordinator teardown)
	)

	switch cfg.role {
	case "standalone", "worker":
		opts := []sim.Option{sim.WithWorkers(cfg.jobs)}
		if cfg.store != "" {
			opts = append(opts, sim.WithStore(cfg.store))
		}
		session := sim.NewSession(opts...)
		handler = fleet.NewLocal(session, fleet.NewLimiter(cfg.maxInflight, cfg.maxQueue)).Handler()
		st := session.Stats()
		if st.Store != nil {
			banner = fmt.Sprintf("[memdep-server %s listening on %s, %d workers, store %s]", cfg.role, cfg.addr, st.Workers, st.Store.Dir)
		} else {
			banner = fmt.Sprintf("[memdep-server %s listening on %s, %d workers]", cfg.role, cfg.addr, st.Workers)
		}
		if cfg.role == "worker" {
			if cfg.coordinator == "" {
				fmt.Fprintln(stderr, "memdep-server: -role worker requires -coordinator")
				return 2
			}
			agent, err := fleet.NewAgent(fleet.AgentConfig{
				Coordinator: cfg.coordinator,
				Name:        workerName(cfg),
				URL:         advertiseURL(cfg),
				Interval:    cfg.heartbeat,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(stderr, "[memdep-server] "+format+"\n", args...)
				},
			})
			if err != nil {
				fmt.Fprintf(stderr, "memdep-server: %v\n", err)
				return 2
			}
			actx, acancel := context.WithCancel(context.Background())
			adone := make(chan struct{})
			go func() {
				defer close(adone)
				agent.Run(actx)
			}()
			// Leave the coordinator's registry (so nothing new routes here)
			// before draining the in-flight requests.
			preDrain = func() {
				acancel()
				<-adone
			}
		}
	case "coordinator":
		coord := fleet.NewCoordinator(fleet.Config{
			Registry:       fleet.RegistryConfig{TTL: cfg.workerTTL},
			HealthInterval: cfg.heartbeat,
			MaxInflight:    cfg.maxInflight,
			MaxQueue:       cfg.maxQueue,
		})
		handler = coord.Handler()
		banner = fmt.Sprintf("[memdep-server coordinator listening on %s]", cfg.addr)
		afterDrain = coord.Close
	default:
		fmt.Fprintf(stderr, "memdep-server: unknown -role %q (want standalone, coordinator or worker)\n", cfg.role)
		return 2
	}

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: handler,
		// Bound how long a client may dribble its request in; responses are
		// unbounded because a full-scale simulation legitimately takes a
		// while to compute before the first byte.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintln(stderr, banner)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	if preDrain != nil {
		preDrain()
	}
	fmt.Fprintln(stderr, "[memdep-server draining]")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if afterDrain != nil {
		afterDrain()
	}
	fmt.Fprintln(stderr, "[memdep-server stopped]")
	return 0
}

// workerName resolves the worker's fleet name: the -name flag, or
// hostname + listen address.
func workerName(cfg *config) string {
	if cfg.name != "" {
		return cfg.name
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return host + cfg.addr
}

// advertiseURL resolves the base URL the coordinator reaches the worker at:
// the -advertise flag, or loopback plus the listen address.
func advertiseURL(cfg *config) string {
	if cfg.advertise != "" {
		return cfg.advertise
	}
	if strings.HasPrefix(cfg.addr, ":") {
		return "http://127.0.0.1" + cfg.addr
	}
	return "http://" + cfg.addr
}
