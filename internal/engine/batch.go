package engine

import "context"

// Ref is a handle into a Batch: Add returns one, Result and Get accept one
// after the batch has run.
type Ref int

// Batch collects a declarative job set and resolves it in one parallel Run.
// Drivers build their whole simulation grid first, execute it with Run, and
// then assemble their output from the positional results -- which is what
// makes driver output independent of the worker count.  A Batch does not
// deduplicate: a spec added twice is two slots, and the engine's
// singleflight Do computes it once and serves the other slot as a hit.
type Batch struct {
	eng     *Engine
	specs   []Spec
	results []any
}

// NewBatch creates an empty batch bound to the engine.
func (e *Engine) NewBatch() *Batch {
	return &Batch{eng: e}
}

// Add appends a job to the set and returns its handle.
func (b *Batch) Add(spec Spec) Ref {
	b.specs = append(b.specs, spec)
	return Ref(len(b.specs) - 1)
}

// Run executes the job set on the engine's worker pool.  Cancelling the
// context aborts the set (see Engine.Run).
func (b *Batch) Run(ctx context.Context) error {
	results, err := b.eng.Run(ctx, b.specs)
	b.results = results
	return err
}

// Get returns the typed result of a job after Run has succeeded.  It panics
// on a type mismatch, which indicates a driver bug (a ref used with the wrong
// kind), not a runtime condition.
func Get[T any](b *Batch, r Ref) T { return b.results[r].(T) }
