// Package engine is the job-based parallel execution engine behind the
// experiment drivers.  The three evaluation layers of the reproduction -- the
// functional simulator (internal/trace), the unrealistic OOO window analyzer
// (internal/window) and the Multiscalar timing simulator
// (internal/multiscalar) -- plug into it as job kinds: each layer registers a
// Simulator that knows how to execute the Specs of its kind, and drivers
// submit declarative job sets instead of looping over simulations serially.
//
// The engine provides three guarantees the experiment stack relies on:
//
//   - Memoization with deduplication: Do is a singleflight -- the first
//     caller of a (kind, key) pair computes the job, concurrent callers of
//     the same pair block until that computation finishes, and later callers
//     get the cached value.  Table and figure drivers running concurrently
//     therefore share functional traces, work items and timing results
//     instead of recomputing them.  Do is the engine's only deduplication:
//     Run and Batch hand it repeated specs as they are.
//
//   - Bounded parallelism: the engine owns one pool of a configurable number
//     of slots (default GOMAXPROCS), and every Run of two or more specs
//     draws from it, so concurrent job sets -- experiment drivers running
//     side by side, several grids -- never execute more than that many jobs
//     at once between them.  A job holds a slot while it executes; a Run
//     waiting for one gives up when its context is cancelled.  Do, the
//     dependencies a job resolves through it and a one-spec Run take no
//     slot: dependencies are computed inline on the goroutine that needs
//     them first, so the pool cannot deadlock as long as specs form a DAG
//     and no job itself calls a Run of two or more specs.
//
//   - Deterministic ordering: Run returns results positionally, one per
//     submitted spec, regardless of the order in which workers finish, so
//     driver output is byte-identical at every worker count.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Spec describes one job declaratively: a kind naming the Simulator that can
// execute it, and a cache key unique among all jobs of that kind that produce
// distinct results.  Specs must be comparable-by-key descriptions of work
// (benchmark names, configurations), not the work itself, and may reference
// other Specs as dependencies.  The dependency graph must be acyclic: a job
// that (transitively) resolves its own spec deadlocks.
type Spec interface {
	// JobKind names the simulator that executes this spec.
	JobKind() string
	// CacheKey identifies the job's result within its kind.  Two specs of
	// the same kind with equal keys must describe the same computation.
	CacheKey() string
}

// Simulator executes the jobs of one kind.  Implementations must be safe for
// concurrent use and must be deterministic: the same spec must always produce
// an equivalent result.
type Simulator interface {
	// JobKind returns the kind this simulator handles.
	JobKind() string
	// Simulate executes the job.  The engine is passed in so the job can
	// resolve dependency specs through eng.Do (memoized and re-entrant); the
	// context is the caller's and long-running simulations should abort with
	// ctx.Err() when it is cancelled.
	Simulate(ctx context.Context, eng *Engine, spec Spec) (any, error)
}

// Key returns the engine-wide cache key of a spec.
func Key(spec Spec) string {
	return spec.JobKind() + "\x00" + spec.CacheKey()
}

// Tier is an optional second-level cache beneath the in-memory memo map,
// typically a persistent content-addressed store shared across processes
// (internal/store).  Do consults it read-through on a memory miss and writes
// computed results behind it; errors are never persisted.  Implementations
// must be safe for concurrent use, must treat every failure as a miss (a
// Tier is an optimization, never a source of truth), and Load must return
// values indistinguishable from freshly computed ones -- warm results feed
// the same deterministic drivers as cold ones.
type Tier interface {
	// Load returns the persisted result of a (kind, key) job, if one exists.
	Load(kind, key string) (any, bool)
	// Save persists a computed result.  Concurrent Saves of the same pair
	// (from any number of processes) must race benignly.
	Save(kind, key string, v any)
}

// call is one memoized (possibly in-flight) job execution.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Engine schedules jobs over a worker pool and memoizes their results.
type Engine struct {
	workers int
	// slots is the engine-wide pool every Run of two or more specs draws
	// from: a job sends into it before it executes and receives once done.
	slots chan struct{}

	// mu guards the two maps below; the Do fast path reads calls under it
	// on every cache probe, so hold it only for map operations.
	mu sync.Mutex
	//memdep:guardedby mu
	sims map[string]Simulator
	//memdep:guardedby mu
	calls map[string]*call
	//memdep:guardedby mu
	tier Tier

	executed atomic.Uint64
	hits     atomic.Uint64
}

// New creates an engine with the given worker-pool size; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		slots:   make(chan struct{}, workers),
		sims:    make(map[string]Simulator),
		calls:   make(map[string]*call),
	}
}

// Workers returns the worker-pool size: the number of jobs that Runs of two
// or more specs execute at once, between them.
func (e *Engine) Workers() int { return e.workers }

// Register installs simulators, one per job kind.  Registering a kind twice
// replaces the earlier simulator.  The loop is bounded by its arguments and
// does no blocking work, so there is no cancellation point to thread.
//
//lint:noctx bounded registration loop, no blocking work
func (e *Engine) Register(sims ...Simulator) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range sims {
		e.sims[s.JobKind()] = s
	}
}

// SetTier installs a second-level cache beneath the in-memory memo map.
// Install it before submitting work; jobs already in flight keep the tier
// they started with (none).
//
//lint:noctx setter, no blocking work
func (e *Engine) SetTier(t Tier) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tier = t
}

// Executed returns the number of jobs actually computed (cache misses that
// the second tier, when installed, could not serve either).
func (e *Engine) Executed() uint64 { return e.executed.Load() }

// Hits returns the number of Do calls served from the cache or deduplicated
// onto an in-flight computation.
func (e *Engine) Hits() uint64 { return e.hits.Load() }

// CacheLen returns the number of memoized jobs (including in-flight ones).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.calls)
}

// Do executes one job, memoized: the first caller computes it inline, and
// every other caller -- concurrent or later -- shares that result.  Errors
// are memoized like values, with one exception: a job that aborts with the
// context's cancellation error is evicted from the cache, so a later call
// with a live context recomputes it instead of inheriting a stale
// cancellation.  Do is re-entrant: a running job may call Do to resolve its
// dependencies.  A caller whose context is cancelled while it waits on
// another caller's in-flight computation returns ctx.Err() immediately; the
// computation itself keeps running and is cached for future callers.  The
// converse also holds: a waiter with a live context never inherits the
// computing caller's cancellation -- it retries the evicted job instead.
func (e *Engine) Do(ctx context.Context, spec Spec) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The cache key is built once: the memo map, the tier's load and its
	// save all use it.
	kind, key := spec.JobKind(), spec.CacheKey()
	k := kind + "\x00" + key
	e.mu.Lock()
	for {
		c, ok := e.calls[k]
		if !ok {
			break
		}
		e.mu.Unlock()
		e.hits.Add(1)
		select {
		case <-c.done:
			if isCancellation(c.err) && ctx.Err() == nil {
				// The computing caller's context died, not ours.  The dying
				// entry was evicted before done closed, so loop and either
				// join a fresh computation or start one.
				e.mu.Lock()
				continue
			}
			return c.val, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	sim, ok := e.sims[kind]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: no simulator registered for job kind %q", kind)
	}
	c := &call{done: make(chan struct{})}
	e.calls[k] = c
	tier := e.tier
	e.mu.Unlock()

	// Read through the second tier before computing: a persisted result is
	// memoized under the in-flight call exactly like a computed one, so
	// concurrent callers deduplicate onto the disk read too.
	fromTier := false
	if tier != nil {
		if v, ok := tier.Load(kind, key); ok {
			c.val = v
			fromTier = true
		}
	}
	if !fromTier {
		func() {
			defer func() {
				if p := recover(); p != nil {
					c.val = nil
					c.err = fmt.Errorf("engine: %s job %q panicked: %v", kind, key, p)
				}
			}()
			c.val, c.err = sim.Simulate(ctx, e, spec)
		}()
	}
	if isCancellation(c.err) {
		// Evict before waking waiters so no caller -- new or currently
		// blocked on done -- can read one request's cancellation as its own
		// failure; blocked waiters with live contexts retry above.
		e.mu.Lock()
		delete(e.calls, k)
		e.mu.Unlock()
	}
	close(c.done)
	if !fromTier {
		e.executed.Add(1)
		if tier != nil && c.err == nil {
			// Write behind: waiters were woken first, so nobody blocks on
			// the disk write; only this computing caller pays for it.
			tier.Save(kind, key, c.val)
		}
	}
	return c.val, c.err
}

// isCancellation reports whether err is a context cancellation or deadline.
func isCancellation(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Run executes a job set on the engine's pool and returns the results
// positionally: results[i] belongs to specs[i] whatever order the jobs
// finish in.  Duplicate specs are deduplicated by the memoized Do.  If any
// job fails, Run returns the error of the smallest failing index (so the
// reported error is deterministic too); the results of successful jobs are
// still filled in.
//
// A set of two or more specs is dispatched in order, each job waiting for a
// slot of the engine-wide pool and holding it while it executes; the
// calling goroutine and up to Workers()-1 others dispatch.  A
// one-spec set runs inline on the caller's goroutine and takes no slot,
// like Do: a lone request is bounded by whoever admitted it.
//
// Cancelling the context aborts the set: no further jobs are dispatched,
// jobs already started drain, and every undispatched (or
// cancellation-aborted) slot reports ctx.Err().
func (e *Engine) Run(ctx context.Context, specs []Spec) ([]any, error) {
	results := make([]any, len(specs))
	errs := make([]error, len(specs))
	if len(specs) <= 1 {
		for i, s := range specs {
			results[i], errs[i] = e.Do(ctx, s)
		}
	} else {
		// A dispatcher claims the next spec before it waits for a slot, so
		// none waits in line with nothing left to run.
		var next atomic.Int64
		dispatch := func() {
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				if errs[i] = e.acquire(ctx); errs[i] != nil {
					return
				}
				results[i], errs[i] = e.Do(ctx, specs[i])
				e.release()
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < min(e.workers, len(specs)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dispatch()
			}()
		}
		dispatch()
		wg.Wait()
		for i := min(int(next.Load()), len(specs)); i < len(specs); i++ {
			errs[i] = ctx.Err() // only a cancelled wait leaves specs unclaimed
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// acquire takes a slot of the engine-wide pool, waiting until one is free
// or the context is done.
func (e *Engine) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case e.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (e *Engine) release() { <-e.slots }

// Resolve runs one job through the memoized Do and asserts its result type.
func Resolve[T any](ctx context.Context, e *Engine, spec Spec) (T, error) {
	v, err := e.Do(ctx, spec)
	if err != nil {
		var zero T
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("engine: %s job %q returned %T, want %T",
			spec.JobKind(), spec.CacheKey(), v, zero)
	}
	return t, nil
}
