package sim

import (
	"context"
	"errors"

	"memdep/internal/experiments"
	"memdep/internal/stats"
)

// Experiment identifies one table or figure of the paper's evaluation.
type Experiment struct {
	// ID is the identifier used by the paper ("table3", "figure6", ...).
	ID string `json:"id"`
	// Description summarises what the experiment reports.
	Description string `json:"description"`
}

// Experiments lists every experiment in presentation order.
func Experiments() []Experiment {
	all := experiments.All()
	out := make([]Experiment, len(all))
	for i, e := range all {
		out[i] = Experiment{ID: e.ID, Description: e.Description}
	}
	return out
}

// lookupExperiment resolves an ID to the internal registry entry, shaping
// unknown IDs as a *ValidationError.
func lookupExperiment(id string) (experiments.NamedExperiment, error) {
	e, err := experiments.Lookup(id)
	if err != nil {
		v := &ValidationError{}
		v.add("experiment", id, "unknown experiment")
		return experiments.NamedExperiment{}, v
	}
	return e, nil
}

// LookupExperiment resolves an experiment ID; unknown IDs are reported as a
// *ValidationError.
func LookupExperiment(id string) (Experiment, error) {
	e, err := lookupExperiment(id)
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{ID: e.ID, Description: e.Description}, nil
}

// SuiteOptions configures an experiment run.  The zero value reproduces
// EXPERIMENTS.md: every workload at its default scale, run to completion, on
// the paper's evaluated configuration.
type SuiteOptions struct {
	// Quick truncates every run (the unit-test and CI preset).
	Quick bool `json:"quick,omitempty"`
	// Scale overrides every workload's default scale when positive.
	Scale int `json:"scale,omitempty"`
	// MaxInstructions caps the committed instructions per benchmark.
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// MDPTEntries sets the prediction-table size (0 = 64).
	MDPTEntries int `json:"mdpt_entries,omitempty"`
	// Predictor selects the prediction-table organization ("" = full).
	Predictor TableKind `json:"predictor,omitempty"`
	// MDPTWays sets the associativity of the setassoc/storeset organizations.
	MDPTWays int `json:"mdpt_ways,omitempty"`
	// Synth overrides the base synthetic-workload spec swept by the
	// sensitivity-synth experiment (nil = the generator defaults with seed 1).
	// The sweep varies the dependence-distance histogram and alias-set size
	// on top of this base; other experiments ignore it.
	Synth *SynthSpec `json:"synth,omitempty"`
}

// options converts to the internal experiment options.
func (o SuiteOptions) options() (experiments.Options, error) {
	opts := experiments.Full()
	if o.Quick {
		opts = experiments.Quick()
	}
	if o.Scale > 0 {
		opts.Scale = o.Scale
	}
	if o.MaxInstructions > 0 {
		opts.MaxInstructions = o.MaxInstructions
	}
	if o.MDPTEntries > 0 {
		opts.MDPTEntries = o.MDPTEntries
	}
	table, err := o.Predictor.kind()
	if err != nil {
		return opts, err
	}
	opts.PredictorTable = table
	opts.MDPTWays = o.MDPTWays
	if o.Synth != nil {
		// Validate through the facade so problems keep the structured
		// synth.-prefixed field shape the rest of the API reports.
		v := &ValidationError{}
		validateSynth(o.Synth, v)
		if err := v.errs(); err != nil {
			return opts, err
		}
		opts.SynthBase = o.Synth
	}
	return opts, nil
}

// Effective returns the options as the suite actually runs them: the Quick
// preset materialized into its concrete bounds (scale 1, 40k instructions)
// and the enums canonicalized.  Tools that echo a configuration should
// report these values, not the raw inputs.
func (o SuiteOptions) Effective() SuiteOptions {
	if iopts, err := o.options(); err == nil {
		o.Scale = iopts.Scale
		o.MaxInstructions = iopts.MaxInstructions
	}
	if t, err := ParseTableKind(string(defaultedTable(o.Predictor))); err == nil {
		o.Predictor = t
	}
	if o.Synth != nil {
		spec := o.Synth.Normalize()
		o.Synth = &spec
	}
	return o
}

// Table is a titled grid of string cells: the rendered form of one
// experiment.  It is the renderer's own type, so its fields, JSON names and
// methods (AddRow, NumRows, Cell, Render, CSV) are documented there: go doc
// memdep/internal/stats.Table.
type Table = stats.Table

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table { return stats.NewTable(title, columns...) }

// RunExperiments runs the experiments with the given IDs side by side
// against the session cache: every driver starts at once, on its own
// goroutine, and the session's worker pool bounds how many of their jobs
// execute at once.  yield receives each table in the order of ids, as soon
// as it and every table before it are done.  Unknown IDs and malformed
// options are reported as a *ValidationError before any driver starts.  A
// failing driver's error is prefixed with its experiment's ID
// ("table6: ..."); when several fail, the first in the order of ids is
// reported, and the drivers still running are then cancelled.
func (s *Session) RunExperiments(ctx context.Context, ids []string, opts SuiteOptions, yield func(Experiment, *Table)) error {
	exps := make([]experiments.NamedExperiment, len(ids))
	for i, id := range ids {
		e, err := lookupExperiment(id)
		if err != nil {
			return err
		}
		exps[i] = e
	}
	iopts, err := opts.options()
	if err != nil {
		// Structured per-field errors (a bad synth base spec) pass through
		// unchanged; plain enum-parse errors are wrapped.
		var verr *ValidationError
		if errors.As(err, &verr) {
			return verr
		}
		v := &ValidationError{}
		v.add("options", "", err.Error())
		return v
	}
	r := experiments.NewRunnerWithEngine(iopts, s.eng)
	return r.RunAll(ctx, exps, func(e experiments.NamedExperiment, tab *Table) {
		yield(Experiment{ID: e.ID, Description: e.Description}, tab)
	})
}
