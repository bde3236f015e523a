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
		if err := o.Synth.Validate(); err != nil {
			return opts, err
		}
		sp := o.Synth.internal()
		opts.SynthBase = &sp
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
		o.Synth = o.Synth.Normalize()
	}
	return o
}

// Table is a titled grid of string cells: the rendered form of one
// experiment, matching the corresponding table or figure of the paper.
type Table struct {
	Title   string     `json:"title"`   // Title is the table's heading.
	Columns []string   `json:"columns"` // Columns is the header row.
	Rows    [][]string `json:"rows"`    // Rows is the cell grid, one slice per row.
	// Note is free-form text rendered under the table.
	Note string `json:"note,omitempty"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row, padding it to the header width.
func (t *Table) AddRow(cells ...string) {
	st := t.internal()
	st.AddRow(cells...)
	t.Rows = st.Rows
}

// internal converts to the rendering representation.
func (t *Table) internal() *stats.Table {
	return &stats.Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows, Note: t.Note}
}

// Render returns the aligned-text rendering.
func (t *Table) Render() string { return t.internal().Render() }

// CSV returns the CSV rendering.
func (t *Table) CSV() string { return t.internal().CSV() }

// RunExperiment executes one experiment by ID against the session cache and
// returns its table.  Unknown IDs and malformed options are reported as a
// *ValidationError.
func (s *Session) RunExperiment(ctx context.Context, id string, opts SuiteOptions) (*Table, error) {
	e, err := lookupExperiment(id)
	if err != nil {
		return nil, err
	}
	iopts, err := opts.options()
	if err != nil {
		// Structured per-field errors (a bad synth base spec) pass through
		// unchanged; plain enum-parse errors are wrapped.
		var verr *ValidationError
		if errors.As(err, &verr) {
			return nil, verr
		}
		v := &ValidationError{}
		v.add("options", "", err.Error())
		return nil, v
	}
	runner := experiments.NewRunnerWithEngine(iopts, s.eng)
	tab, err := e.Run(runner, ctx)
	if err != nil {
		return nil, err
	}
	return &Table{Title: tab.Title, Columns: tab.Columns, Rows: tab.Rows, Note: tab.Note}, nil
}
