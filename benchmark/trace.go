package main

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
	"memdep/internal/store"
	"memdep/internal/trace"
)

// span is one timed call into a layer.
type span struct {
	layer  string // "multiscalar.simulate", "store.load", ...
	key    string // engine jobs and store calls: the job's engine.Key
	start  time.Duration
	end    time.Duration
	parent int     // index of the enclosing span; -1 for none
	work   float64 // simulated cycles (timing core) or instructions (functional trace)
	hit    bool    // store loads: served from disk
	bytes  int     // store calls: encoded payload size
	spec   engine.Spec
	value  any // store calls: the value, sized once the phase ends
}

// tracer keeps spans in memory until the traced phase ends.
type tracer struct {
	epoch time.Time

	mu sync.Mutex
	//memdep:guardedby mu
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// open starts a span and returns its index.
func (t *tracer) open(layer, key string, parent int, spec engine.Spec) int {
	s := span{layer: layer, key: key, start: t.now(), parent: parent, spec: spec}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// close ends span i.
func (t *tracer) close(i int, work float64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = end
	t.spans[i].work = work
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// timed runs f as a root span of layer and returns its duration; f returns
// the work it did.
func (t *tracer) timed(layer string, f func() (float64, error)) (time.Duration, error) {
	start := t.now()
	work, err := f()
	end := t.now()
	t.add(span{layer: layer, start: start, end: end, parent: -1, work: work})
	return end - start, err
}

// codecs are the store's codecs by job kind: the kinds it persists.
var codecs = func() map[string]store.Codec {
	m := map[string]store.Codec{}
	for _, c := range store.DefaultCodecs() {
		m[c.Kind()] = c
	}
	return m
}()

// take returns the spans recorded so far and starts a new phase.  Store
// calls are linked to their parents and their values sized first.
func (t *tracer) take() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	linkStoreCalls(spans)
	for i := range spans {
		s := &spans[i]
		if s.value == nil {
			continue
		}
		kind, _, _ := strings.Cut(s.key, "\x00")
		if data, err := codecs[kind].Encode(s.value); err == nil {
			s.bytes = len(data)
		}
		s.value = nil
	}
	return spans
}

// parentKey carries the enclosing span's index through a job's context:
// the engine resolves a job's dependencies inline, on the same goroutine
// and under the context it passed the job.
type parentKey struct{}

func parentOf(ctx context.Context) int {
	if i, ok := ctx.Value(parentKey{}).(int); ok {
		return i
	}
	return -1
}

// layerName turns a job kind ("multiscalar/simulate") into its layer's
// metric prefix ("multiscalar.simulate").
func layerName(kind string) string { return strings.ReplaceAll(kind, "/", ".") }

// tracedSim wraps a layer's engine simulator with a span around Simulate.
type tracedSim struct {
	inner engine.Simulator
	t     *tracer
}

func (s tracedSim) JobKind() string { return s.inner.JobKind() }

func (s tracedSim) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	i := s.t.open(layerName(spec.JobKind()), engine.Key(spec), parentOf(ctx), spec)
	v, err := s.inner.Simulate(context.WithValue(ctx, parentKey{}, i), eng, spec)
	var work float64
	switch r := v.(type) {
	case multiscalar.Result:
		work = float64(r.Cycles)
	case trace.Stats:
		work = float64(r.Instructions)
	}
	s.t.close(i, work)
	return v, err
}

// tracedTier wraps the engine's store tier with a span around each Load and
// Save of a kind the store persists; the other kinds return at once.  The
// tier is not handed a context, so a call's parent is found afterwards by
// linkStoreCalls.
type tracedTier struct {
	inner engine.Tier
	t     *tracer
}

func (w tracedTier) Load(kind, key string) (any, bool) {
	if codecs[kind] == nil {
		return w.inner.Load(kind, key)
	}
	start := w.t.now()
	v, ok := w.inner.Load(kind, key)
	end := w.t.now()
	s := span{layer: "store.load", key: kind + "\x00" + key, start: start, end: end, hit: ok}
	if ok {
		s.value = v
	}
	w.t.add(s)
	return v, ok
}

func (w tracedTier) Save(kind, key string, v any) {
	if codecs[kind] == nil {
		w.inner.Save(kind, key, v)
		return
	}
	start := w.t.now()
	w.inner.Save(kind, key, v)
	end := w.t.now()
	w.t.add(span{layer: "store.save", key: kind + "\x00" + key, start: start, end: end, value: v})
}

// linkStoreCalls gives each store call a parent.  The engine loads, computes
// and saves a job inside one Do call, so the load and save of a job that
// was computed have the parent of the job's own span.  A load served from
// disk has no job span; it is charged to the top level, which is where the
// sweep's warm hits happen.
func linkStoreCalls(spans []span) {
	parent := map[string]int{}
	for _, s := range spans {
		if s.spec != nil {
			parent[s.key] = s.parent
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.layer != "store.load" && s.layer != "store.save" {
			continue
		}
		s.parent = -1
		if p, ok := parent[s.key]; ok {
			s.parent = p
		}
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.  Children may overlap one another (parallel work under
// one parent); the covered part is the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.a <= cur.b:
				cur.b = max(cur.b, v.b)
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTotals is one layer's aggregate over a set of spans.
type layerTotals struct {
	calls int
	hits  int
	self  time.Duration
	work  float64
	bytes int
}

// totals aggregates spans by layer, using self time.
func totals(spans []span) map[string]*layerTotals {
	out := map[string]*layerTotals{}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		l := out[s.layer]
		if l == nil {
			l = &layerTotals{}
			out[s.layer] = l
		}
		l.calls++
		l.self += self
		l.work += s.work
		l.bytes += s.bytes
		if s.hit {
			l.hits++
		}
	}
	return out
}
