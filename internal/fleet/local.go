package fleet

import (
	"context"
	"encoding/json"
	"net/http"

	"memdep/sim"
)

// Local is the backend of the standalone and worker roles: one in-process
// sim.Session shared by every request, so concurrent and repeated
// simulations hit the same memoized cache, and a client that disconnects
// cancels its in-flight simulation.
type Local struct {
	session *sim.Session
	lim     *Limiter
}

// localHealth is a standalone or worker server's GET /v1/healthz body.
type localHealth struct {
	Status string    `json:"status"`
	Stats  sim.Stats `json:"stats"`
}

// localStatz is a standalone or worker server's GET /v1/statz body: the same
// session stats as /v1/healthz, served on their own path so dashboards
// scraping store counters do not double as liveness probes.
type localStatz struct {
	Stats     sim.Stats     `json:"stats"`
	Admission *LimiterStats `json:"admission,omitempty"`
}

// NewLocal serves session, admitting simulate and grid requests through lim;
// a nil lim admits everything, the standalone default.
func NewLocal(session *sim.Session, lim *Limiter) *Local {
	return &Local{session: session, lim: lim}
}

// Handler serves the simulation routes over the session.  Streamed grids
// run as many cells at once as the session has engine workers.
func (l *Local) Handler() http.Handler {
	return newMux(l, l.lim, l.session.Stats().Workers)
}

// Simulate runs one request on the session and encodes its result the way
// every JSON response is served: indented, newline-terminated.
func (l *Local) Simulate(ctx context.Context, req sim.Request) ([]byte, error) {
	res, err := l.session.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	return indentJSON(res)
}

// Grid runs the requests as one job set on the session, so cells sharing a
// workload build and preprocess it once.
func (l *Local) Grid(ctx context.Context, reqs []sim.Request) ([]json.RawMessage, error) {
	results, err := l.session.RunGrid(ctx, reqs)
	if err != nil {
		return nil, err
	}
	docs := make([]json.RawMessage, len(results))
	for i, res := range results {
		if docs[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// SessionStats snapshots the session's cache counters.
func (l *Local) SessionStats() *sim.Stats {
	st := l.session.Stats()
	return &st
}

// Health reports liveness and the session's cache counters.
func (l *Local) Health() any {
	return localHealth{Status: "ok", Stats: l.session.Stats()}
}

// Statz reports the full session stats, the persistent store's per-kind
// counters included, and the limiter when one is configured.
func (l *Local) Statz() any {
	resp := localStatz{Stats: l.session.Stats()}
	if l.lim != nil {
		ls := l.lim.Stats()
		resp.Admission = &ls
	}
	return resp
}
