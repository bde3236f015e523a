package sim

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/experiments"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
	"memdep/internal/store"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// Session is a handle on one simulation service: a job engine with every
// evaluation layer registered and a memoized result cache shared by every
// request that runs through it.  A Session is safe for concurrent use; the
// HTTP service serves all requests from one.
type Session struct {
	eng      *engine.Engine
	storeDir string
	store    *store.Store
}

// Option configures a Session.
type Option func(*Session)

// WithWorkers sets the engine worker-pool size (0 or unset = GOMAXPROCS):
// how many jobs of grids and experiment sweeps execute at once, across all
// of them.  A single Run takes no slot of the pool.  Results are identical
// at every size.
func WithWorkers(n int) Option {
	return func(s *Session) { s.eng = experiments.NewEngine(n) }
}

// WithStore layers a persistent, content-addressed result store rooted at
// dir beneath the session's in-memory cache: simulation results, window
// analyses and preprocessed work items are read from disk on a memory miss
// and written behind on a compute, so repeated identical runs -- across
// sessions, processes and CI jobs sharing the directory -- skip the
// recomputation.  A repeated request reads only its result back; a new
// configuration of a persisted workload reads its work item.  Program
// builds, cheaper than a disk read, run again when an annotation needs the
// program.  Warm results are byte-identical to cold ones.  The directory is
// created on first write; corrupt or version-mismatched entries degrade to
// misses, never to failures.  An empty dir disables the store.
func WithStore(dir string) Option {
	return func(s *Session) { s.storeDir = dir }
}

// NewSession creates a session with a fresh engine and cache.  Construction
// only applies the option closures; the context belongs to Run.
//
//lint:noctx constructor, applies bounded option list
func NewSession(opts ...Option) *Session {
	s := &Session{}
	for _, opt := range opts {
		opt(s)
	}
	if s.eng == nil {
		s.eng = experiments.NewEngine(0)
	}
	if s.storeDir != "" {
		s.store = store.Open(s.storeDir, store.DefaultCodecs()...)
		s.eng.SetTier(s.store)
	}
	return s
}

// Stats is a snapshot of the session's engine counters.
type Stats struct {
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// Executed counts jobs actually computed (misses of every cache tier).
	Executed uint64 `json:"executed"`
	// Hits counts jobs served from the in-memory cache or deduplicated onto
	// an in-flight computation.
	Hits uint64 `json:"hits"`
	// CachedJobs is the number of memoized jobs.
	CachedJobs int `json:"cached_jobs"`
	// Store snapshots the persistent second-tier cache, when the session
	// was opened with WithStore.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreCounters is the disk-tier traffic of one kind (or in aggregate): the
// store's own counter snapshot, go doc memdep/internal/store.Counters.
type StoreCounters = store.Counters

// StoreStats is a snapshot of the persistent store's counters: the aggregate
// traffic since the session opened plus the same counters split by job kind.
type StoreStats struct {
	// Dir is the store's root directory.
	Dir string `json:"dir"`
	// Counters aggregates the disk-tier traffic across kinds.
	Counters StoreCounters `json:"counters"`
	// Kinds splits the same counters by job kind.
	Kinds map[string]StoreCounters `json:"kinds,omitempty"`
}

// Stats returns a snapshot of the session's engine counters.
func (s *Session) Stats() Stats {
	st := Stats{
		Workers:    s.eng.Workers(),
		Executed:   s.eng.Executed(),
		Hits:       s.eng.Hits(),
		CachedJobs: s.eng.CacheLen(),
	}
	if s.store != nil {
		st.Store = &StoreStats{
			Dir:      s.store.Dir(),
			Counters: s.store.Counters(),
			Kinds:    s.store.KindCounters(),
		}
	}
	return st
}

// Run executes one simulation request (memoized: repeating a request is
// served from the session cache) and returns the result with its
// mis-speculated pairs annotated.
func (s *Session) Run(ctx context.Context, req Request) (*Result, error) {
	results, err := s.RunGrid(ctx, []Request{req})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// itemJob declares a workload's preprocessed work item under an instruction
// bound.  Simulations, window analyses and the task-size histogram of one
// workload and bound all resolve this one job.
func itemJob(program engine.Spec, maxInstructions uint64) multiscalar.PreprocessJob {
	return multiscalar.PreprocessJob{Program: program, Trace: trace.Config{MaxInstructions: maxInstructions}}
}

// progKey groups grid requests that share a program.  The workload identity
// is its canonical JSON (the benchmark name, or the full normalized synthetic
// spec including its seed).
type progKey struct {
	workload string
	scale    int
}

// RunGrid executes a set of simulation requests as one job set: the whole
// grid is declared up front, fans out over the engine's worker pool, and
// shares the session cache, so requests that differ only in policy or stage
// count build and preprocess their workload exactly once.  Results are
// positional: results[i] answers reqs[i].
func (s *Session) RunGrid(ctx context.Context, reqs []Request) ([]*Result, error) {
	type planned struct {
		req  Request
		key  progKey
		prog engine.Spec
		ref  engine.Ref
	}
	plan := make([]planned, len(reqs))
	b := s.eng.NewBatch()
	for i, req := range reqs {
		if err := req.Validate(); err != nil {
			if len(reqs) > 1 {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			return nil, err
		}
		req = req.Normalize()
		cfg, err := req.config()
		if err != nil {
			return nil, err
		}
		prog := req.Workload().buildJob(req.Scale)
		plan[i] = planned{
			req:  req,
			key:  progKey{req.Workload().CanonicalJSON(), req.Scale},
			prog: prog,
			ref:  b.Add(multiscalar.SimulateJob{Item: itemJob(prog, req.MaxInstructions), Config: cfg}),
		}
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	// Resolve each distinct workload's program once for annotation: a cache
	// hit when the simulations above computed, and a cheap memory-only build
	// when they were read back from the store.
	progs := map[progKey]*program.Program{}
	for _, p := range plan {
		if _, ok := progs[p.key]; ok {
			continue
		}
		prog, err := engine.Resolve[*program.Program](ctx, s.eng, p.prog)
		if err != nil {
			return nil, err
		}
		progs[p.key] = prog
	}

	results := make([]*Result, len(plan))
	for i, p := range plan {
		results[i] = newResult(p.req, engine.Get[multiscalar.Result](b, p.ref), progs[p.key])
	}
	return results, nil
}

// Benchmark describes one synthetic workload of the suite.
type Benchmark struct {
	// Name is the benchmark name as used in the paper's tables.
	Name string `json:"name"`
	// Suite is the benchmark suite ("SPECint92", "SPECint95", "SPECfp95").
	Suite string `json:"suite"`
	// Description summarises the original program and its synthetic stand-in.
	Description string `json:"description"`
	// DefaultScale is the scale used by full experiment runs.
	DefaultScale int `json:"default_scale"`
}

// Benchmarks lists the synthetic workload suite in name order.
func Benchmarks() []Benchmark {
	names := workload.Names()
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		w := workload.MustGet(name)
		out = append(out, Benchmark{
			Name:         w.Name,
			Suite:        w.Suite.String(),
			Description:  w.Description,
			DefaultScale: w.DefaultScale,
		})
	}
	return out
}
