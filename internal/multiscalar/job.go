package multiscalar

import (
	"context"
	"fmt"
	"strconv"

	"memdep/internal/engine"
	"memdep/internal/program"
	"memdep/internal/trace"
)

// PreprocessKind is the engine job kind that turns a program into a WorkItem.
const PreprocessKind = "multiscalar/preprocess"

// SimulateKind is the engine job kind for a Multiscalar timing simulation.
const SimulateKind = "multiscalar/simulate"

// PreprocessJob is the engine spec for running a program on the functional
// simulator and building the task-structured work item.  Program must resolve
// to a *program.Program (typically a workload.BuildJob).  The job resolves to
// a *multiscalar.WorkItem, which is immutable and shared by every simulation
// that consumes it.
type PreprocessJob struct {
	Program engine.Spec
	Trace   trace.Config
}

// JobKind implements engine.Spec.
func (PreprocessJob) JobKind() string { return PreprocessKind }

// CacheKey implements engine.Spec.
func (j PreprocessJob) CacheKey() string {
	var num [20]byte // a conversion inside a concatenation is not copied
	return engine.Key(j.Program) + "|max=" + string(strconv.AppendUint(num[:0], j.Trace.MaxInstructions, 10))
}

// preprocessSimulator executes PreprocessJob specs.
type preprocessSimulator struct{}

// PreprocessSimulator returns the engine simulator for the
// multiscalar/preprocess kind.
func PreprocessSimulator() engine.Simulator { return preprocessSimulator{} }

func (preprocessSimulator) JobKind() string { return PreprocessKind }

func (preprocessSimulator) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(PreprocessJob)
	if !ok {
		return nil, fmt.Errorf("multiscalar: spec %T is not a PreprocessJob", spec)
	}
	p, err := engine.Resolve[*program.Program](ctx, eng, job.Program)
	if err != nil {
		return nil, err
	}
	return Preprocess(p, job.Trace)
}

// SimulateJob is the engine spec for one timing simulation.  Item must
// resolve to a *multiscalar.WorkItem (typically a PreprocessJob).  The job
// resolves to a multiscalar.Result.
type SimulateJob struct {
	Item   engine.Spec
	Config Config
}

// JobKind implements engine.Spec.
func (SimulateJob) JobKind() string { return SimulateKind }

// CacheKey implements engine.Spec.  It encodes the effective configuration
// (withDefaults), so configurations that run identically share one entry,
// and it names every field that can change what a run returns.  Two fields
// stay out:
// Core, because both run loops produce identical Results
// (TestCoresCycleIdentical), and MemDep.SyncSlots, which is derived from
// Stages.  TestCacheKeyCoversConfig fails when a field is added to Config or
// memdep.Config without joining the key or the exemptions.  Every request
// builds this key, cache hits included, so it is appended without fmt;
// TestCacheKeysMatchFormulas holds it to the format
//
//	%s|stages=%d,policy=%v,mdpt=%v/%dx%d,bits=%d,pred=%v,addrtag=%t,ddc=%v,max=%d
//
// of the item's key, Stages, Policy, Table, Entries, Ways, CounterBits,
// Predictor, TagByAddress, DDCSizes and MaxCycles.
func (j SimulateJob) CacheKey() string {
	c := j.Config.withDefaults()
	md := c.MemDep
	b := make([]byte, 0, 192)
	b = append(b, engine.Key(j.Item)...)
	b = append(b, "|stages="...)
	b = strconv.AppendInt(b, int64(c.Stages), 10)
	b = append(b, ",policy="...)
	b = append(b, c.Policy.String()...)
	b = append(b, ",mdpt="...)
	b = append(b, md.Table.String()...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(md.Entries), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(md.Ways), 10)
	b = append(b, ",bits="...)
	b = strconv.AppendInt(b, int64(md.CounterBits), 10)
	b = append(b, ",pred="...)
	b = append(b, md.Predictor.String()...)
	b = append(b, ",addrtag="...)
	b = strconv.AppendBool(b, md.TagByAddress)
	b = append(b, ",ddc=["...)
	for i, n := range c.DDCSizes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, "],max="...)
	b = strconv.AppendInt(b, c.MaxCycles, 10)
	return string(b)
}

// simulateSimulator executes SimulateJob specs.
type simulateSimulator struct{}

// SimulateSimulator returns the engine simulator for the multiscalar/simulate
// kind.
func SimulateSimulator() engine.Simulator { return simulateSimulator{} }

func (simulateSimulator) JobKind() string { return SimulateKind }

func (simulateSimulator) Simulate(ctx context.Context, eng *engine.Engine, spec engine.Spec) (any, error) {
	job, ok := spec.(SimulateJob)
	if !ok {
		return nil, fmt.Errorf("multiscalar: spec %T is not a SimulateJob", spec)
	}
	w, err := engine.Resolve[*WorkItem](ctx, eng, job.Item)
	if err != nil {
		return nil, err
	}
	// The arena comes from the package pool, which every simulate job and
	// one-shot call share, so a single request reuses one as a grid does.
	return SimulateContext(ctx, w, job.Config)
}
