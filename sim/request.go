package sim

import (
	"encoding/json"
	"fmt"

	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/workload"
)

// Request describes one Multiscalar timing simulation.  The zero value of
// every field except the workload (Bench or Synth) selects the paper's
// evaluated configuration (8 stages, ESYNC, a 64-entry fully associative
// MDPT, the event-driven core, the benchmark's default scale, an unbounded
// run), so the minimal requests are {"bench": "compress"} and
// {"synth": {"seed": 1}}.
type Request struct {
	// Bench names the benchmark to simulate (Benchmarks lists the committed
	// suite).  Exactly one of Bench or Synth must be set.
	Bench string `json:"bench,omitempty"`
	// Synth describes an inline synthetic workload instead of a named
	// benchmark: the generated program runs through the same trace,
	// preprocess and simulation pipeline, memoized under the spec's
	// canonical JSON (including the seed).
	Synth *SynthSpec `json:"synth,omitempty"`
	// Stages is the number of processing units (0 = 8, the paper's main
	// configuration; the paper also evaluates 4).
	Stages int `json:"stages,omitempty"`
	// Policy selects the data dependence speculation policy ("" = ESYNC).
	Policy Policy `json:"policy,omitempty"`
	// Core names the timing core.  The event-driven core is the only one:
	// "", "event" and "stepped", in any case, all normalize to "event", and
	// any other value is a "core" field error.
	//
	// Deprecated: the field selects nothing; omit it.
	Core CoreMode `json:"core,omitempty"`
	// Scale overrides the workload scale (0 = the benchmark's default).
	Scale int `json:"scale,omitempty"`
	// MaxInstructions caps the number of committed instructions (0 = run the
	// benchmark to completion).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// MDPTEntries is the prediction-table size (0 = 64, the paper's value).
	// The setassoc/storeset organizations keep whole sets only, so Normalize
	// rounds it down to a multiple of MDPTWays.
	MDPTEntries int `json:"mdpt_entries,omitempty"`
	// Predictor selects the prediction-table organization ("" = the paper's
	// fully associative MDPT).
	Predictor TableKind `json:"predictor,omitempty"`
	// MDPTWays is the associativity of the setassoc/storeset organizations
	// (0 = the memdep default of 4; ignored for the fully associative table).
	MDPTWays int `json:"mdpt_ways,omitempty"`
	// DDCSizes optionally feeds the stream of mis-speculated static pairs
	// into data dependence caches of these sizes (the Table 7 study); the
	// per-size miss rates come back in Result.DDCMissRate.
	DDCSizes []int `json:"ddc_sizes,omitempty"`
}

// Normalize returns the request with every defaulted field filled in and
// every enum canonicalized, without touching the receiver.  Normalize of an
// invalid request leaves the offending fields as they are; Validate reports
// them.
func (r Request) Normalize() Request {
	if r.Stages == 0 {
		r.Stages = multiscalar.DefaultStages
	}
	if p, err := ParsePolicy(string(defaultedPolicy(r.Policy))); err == nil {
		r.Policy = p
	}
	if r.Core.valid() {
		r.Core = CoreEvent
	}
	if t, err := ParseTableKind(string(defaultedTable(r.Predictor))); err == nil {
		r.Predictor = t
	}
	if r.MDPTEntries == 0 {
		r.MDPTEntries = memdep.DefaultEntries
	}
	if r.Synth != nil {
		spec := r.Synth.Normalize()
		r.Synth = &spec
		if r.Scale <= 0 {
			r.Scale = 1
		}
	} else if r.Scale <= 0 {
		if w, err := workload.Get(r.Bench); err == nil {
			r.Scale = w.DefaultScale
		}
	}
	// Echo the effective table geometry (ways clamped to the entries, the
	// entries rounded down to whole sets), matching what a constructed
	// predictor actually runs with.
	if table, err := r.Predictor.kind(); err == nil {
		eff := memdep.Config{Entries: r.MDPTEntries, Table: table, Ways: r.MDPTWays}.Effective()
		r.MDPTEntries, r.MDPTWays = eff.Entries, eff.Ways
	}
	return r
}

// CanonicalJSON returns the canonical JSON encoding of the normalized
// request: two requests describing the same simulation -- whatever spelling
// their enums used and whichever defaulted fields they left zero -- encode
// identically.  It is the request's routing and sharing identity: the fleet
// coordinator rendezvous-hashes it to pick the owning worker, which keeps
// repeats of a request on the worker whose session cache (and persistent
// store) already holds the result.
func (r Request) CanonicalJSON() string {
	data, err := json.Marshal(r.Normalize())
	if err != nil {
		// A Request holds only strings, numbers and slices of both; the
		// encoder cannot fail on it.
		panic(err)
	}
	return string(data)
}

func defaultedPolicy(p Policy) Policy {
	if p == "" {
		return PolicyESync
	}
	return p
}

func defaultedTable(t TableKind) TableKind {
	if t == "" {
		return TableFullAssoc
	}
	return t
}

// Validate reports every invalid field of the request as a *ValidationError
// (nil when the request is well-formed).
func (r Request) Validate() error {
	v := &ValidationError{}
	r.Workload().validate(v)
	if r.Stages < 0 {
		v.add("stages", fmt.Sprint(r.Stages), "must not be negative")
	} else if r.Stages > 64 {
		v.add("stages", fmt.Sprint(r.Stages), "unreasonably large (max 64)")
	}
	if _, err := r.Policy.kind(); err != nil {
		v.add("policy", string(r.Policy), "unknown policy")
	}
	if !r.Core.valid() {
		v.add("core", string(r.Core), "unknown core mode")
	}
	if _, err := r.Predictor.kind(); err != nil {
		v.add("predictor", string(r.Predictor), "unknown predictor table")
	}
	if r.Scale < 0 {
		v.add("scale", fmt.Sprint(r.Scale), "must not be negative")
	}
	checkSynthScale(r.Synth, r.Scale, v)
	if r.MDPTEntries < 0 {
		v.add("mdpt_entries", fmt.Sprint(r.MDPTEntries), "must not be negative")
	}
	if r.MDPTWays < 0 {
		v.add("mdpt_ways", fmt.Sprint(r.MDPTWays), "must not be negative")
	}
	checkSizes("ddc_sizes", r.DDCSizes, v)
	if len(v.Fields) > 0 {
		return v
	}
	// Field values are individually sane; cross-check the assembled timing
	// configuration (counter geometry and the like) the same way the
	// simulator will.
	cfg, err := r.Normalize().config()
	if err != nil {
		v.add("request", "", err.Error())
		return v
	}
	if err := cfg.Validate(); err != nil {
		v.add("request", "", err.Error())
	}
	return v.errs()
}

// checkSizes appends a problem for every non-positive entry of a size list.
func checkSizes(field string, sizes []int, v *ValidationError) {
	for _, size := range sizes {
		if size <= 0 {
			v.add(field, fmt.Sprint(size), "sizes must be positive")
		}
	}
}

// config assembles the internal timing-simulator configuration of a
// normalized request.
func (r Request) config() (multiscalar.Config, error) {
	pol, err := r.Policy.kind()
	if err != nil {
		return multiscalar.Config{}, err
	}
	table, err := r.Predictor.kind()
	if err != nil {
		return multiscalar.Config{}, err
	}
	cfg := multiscalar.DefaultConfig(r.Stages, pol)
	cfg.MemDep.Entries = r.MDPTEntries
	cfg.MemDep.Table = table
	cfg.MemDep.Ways = r.MDPTWays
	cfg.DDCSizes = r.DDCSizes
	return cfg, nil
}

// Workload returns the request's workload identity.
func (r Request) Workload() Workload {
	return Workload{Bench: r.Bench, Synth: r.Synth}
}

// WorkloadName returns the display name of the request's workload: the
// benchmark name, or the synthetic spec's (defaulted) name.
func (r Request) WorkloadName() string { return r.Workload().Name() }
