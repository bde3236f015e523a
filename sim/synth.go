package sim

import (
	"encoding/json"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/synth"
	"memdep/internal/workload"
)

// DistBucket is one bucket of a synthetic workload's dependence-distance
// histogram: Weight relative units of store→load dependences at
// (approximately) Dist dynamic instructions.
type DistBucket struct {
	Dist   int `json:"dist"`   // Dist is the dependence distance in dynamic instructions.
	Weight int `json:"weight"` // Weight is the bucket's relative share of dependences.
}

// SynthSpec parameterizes a synthetic workload (internal/synth): a seeded,
// deterministic generator whose committed instruction stream follows the
// described memory-dependence model.  The zero value of every field selects
// the generator's default, so `{"synth": {}}` is a complete request
// workload.  The same spec and seed always produce a byte-identical program
// -- and therefore byte-identical traces and DeepEqual simulation results --
// at every engine worker count, on every platform.
type SynthSpec struct {
	// Name labels the workload in output ("" = "synth").
	Name string `json:"name,omitempty"`
	// Seed seeds the generator; different seeds give structurally different
	// workloads under the same model parameters.
	Seed uint64 `json:"seed,omitempty"`
	// Ops is the approximate committed dynamic instruction count (0 = 32768).
	Ops int `json:"ops,omitempty"`
	// Body is the approximate static loop-body length (0 = 512); it bounds
	// the number of distinct static load/store PCs the predictors see.
	Body int `json:"body,omitempty"`
	// TaskSize is the mean task size in instructions (0 = 28).
	TaskSize int `json:"task_size,omitempty"`
	// TaskSpread is the half-width of the uniform task-size distribution
	// (0 = 12).
	TaskSpread int `json:"task_spread,omitempty"`
	// LoadFrac is the fraction of body slots that are loads (0 = 0.25).
	LoadFrac float64 `json:"load_frac,omitempty"`
	// StoreFrac is the fraction of body slots that are stores (0 = 0.15).
	StoreFrac float64 `json:"store_frac,omitempty"`
	// DepFrac is the fraction of loads given an engineered store→load
	// dependence (0 = 0.5).
	DepFrac float64 `json:"dep_frac,omitempty"`
	// DepDists is the dependence-distance histogram (nil = 8:4, 32:2, 128:1).
	DepDists []DistBucket `json:"dep_dists,omitempty"`
	// AliasSetSize makes each store rotate over this many addresses (0 = 1):
	// its dependent loads collide with it every AliasSetSize-th iteration
	// only, the mispredict-prone regime.  Rounded up to a power of two.
	AliasSetSize int `json:"alias_set_size,omitempty"`
	// LoopCarried is the fraction of engineered dependences produced in the
	// previous loop iteration (0 = none).
	LoopCarried float64 `json:"loop_carried,omitempty"`
}

// internal converts to the generator's spec type.  A nil receiver is the
// zero spec.
func (s *SynthSpec) internal() synth.Spec {
	if s == nil {
		return synth.Spec{}
	}
	sp := synth.Spec{
		Name:         s.Name,
		Seed:         s.Seed,
		Ops:          s.Ops,
		Body:         s.Body,
		TaskSize:     s.TaskSize,
		TaskSpread:   s.TaskSpread,
		LoadFrac:     s.LoadFrac,
		StoreFrac:    s.StoreFrac,
		DepFrac:      s.DepFrac,
		AliasSetSize: s.AliasSetSize,
		LoopCarried:  s.LoopCarried,
	}
	if len(s.DepDists) > 0 {
		sp.DepDists = make([]synth.DistBucket, len(s.DepDists))
		for i, b := range s.DepDists {
			sp.DepDists[i] = synth.DistBucket{Dist: b.Dist, Weight: b.Weight}
		}
	}
	return sp
}

// synthFromInternal converts a generator spec to the public shape.
func synthFromInternal(sp synth.Spec) *SynthSpec {
	out := &SynthSpec{
		Name:         sp.Name,
		Seed:         sp.Seed,
		Ops:          sp.Ops,
		Body:         sp.Body,
		TaskSize:     sp.TaskSize,
		TaskSpread:   sp.TaskSpread,
		LoadFrac:     sp.LoadFrac,
		StoreFrac:    sp.StoreFrac,
		DepFrac:      sp.DepFrac,
		AliasSetSize: sp.AliasSetSize,
		LoopCarried:  sp.LoopCarried,
	}
	if len(sp.DepDists) > 0 {
		out.DepDists = make([]DistBucket, len(sp.DepDists))
		for i, b := range sp.DepDists {
			out.DepDists[i] = DistBucket{Dist: b.Dist, Weight: b.Weight}
		}
	}
	return out
}

// Normalize returns the spec with every defaulted field materialized,
// without touching the receiver.
func (s *SynthSpec) Normalize() *SynthSpec {
	return synthFromInternal(s.internal().Normalize())
}

// validate appends the spec's field problems to v, prefixing field names
// with "synth.".
func (s *SynthSpec) validate(v *ValidationError) {
	for _, p := range s.internal().Problems() {
		v.add("synth."+p.Field, p.Value, p.Msg)
	}
}

// Validate reports every invalid field as a *ValidationError (nil when the
// spec is well-formed).
func (s *SynthSpec) Validate() error {
	v := &ValidationError{}
	s.validate(v)
	return v.errs()
}

// CanonicalJSON returns the canonical JSON identity of the spec: the
// encoding of its normalized form.  It seeds the generator and keys the
// session cache, so two requests with the same canonical spec share one
// build, trace and preprocessed work item.
func (s *SynthSpec) CanonicalJSON() string {
	return s.internal().Key()
}

// Workload identifies the workload of a request: exactly one of Bench (a
// benchmark of the committed synthetic suite, see Benchmarks) or Synth (an
// inline synthetic-workload spec).
type Workload struct {
	Bench string     `json:"bench,omitempty"` // Bench names a benchmark of the committed suite.
	Synth *SynthSpec `json:"synth,omitempty"` // Synth is an inline synthetic-workload spec.
}

// Normalize returns the workload with synthetic defaults materialized.
func (w Workload) Normalize() Workload {
	if w.Synth != nil {
		w.Synth = w.Synth.Normalize()
	}
	return w
}

// validate appends the workload's problems to v.
func (w Workload) validate(v *ValidationError) {
	switch {
	case w.Bench == "" && w.Synth == nil:
		v.add("bench", "", "a benchmark name or a synthetic spec is required")
	case w.Bench != "" && w.Synth != nil:
		v.add("bench", w.Bench, "bench and synth are mutually exclusive")
	case w.Synth != nil:
		w.Synth.validate(v)
	default:
		if _, err := workload.Get(w.Bench); err != nil {
			v.add("bench", w.Bench, "unknown benchmark")
		}
	}
}

// Validate reports every problem with the workload as a *ValidationError
// (nil when it is well-formed).
func (w Workload) Validate() error {
	v := &ValidationError{}
	w.validate(v)
	return v.errs()
}

// CanonicalJSON returns the workload's identity: the benchmark name or the
// normalized synthetic spec, in canonical field order.
func (w Workload) CanonicalJSON() string {
	if w.Synth != nil {
		return `{"synth":` + w.Synth.CanonicalJSON() + `}`
	}
	data, err := json.Marshal(struct {
		Bench string `json:"bench"`
	}{w.Bench})
	if err != nil {
		panic(fmt.Sprintf("sim: marshal workload: %v", err))
	}
	return string(data)
}

// Name returns the workload's display name: the benchmark name or the
// synthetic spec's (defaulted) name.
func (w Workload) Name() string {
	if w.Synth != nil {
		return w.Synth.internal().Normalize().Name
	}
	return w.Bench
}

// buildJob returns the engine spec that resolves to the workload's program.
func (w Workload) buildJob(scale int) engine.Spec {
	if w.Synth != nil {
		return synth.BuildJob{Spec: w.Synth.internal(), Scale: scale}
	}
	return workload.BuildJob{Name: w.Bench, Scale: scale}
}

// checkSynthScale appends a problem when a synthetic workload's scaled
// dynamic length exceeds the generator's ops cap: Scale multiplies the
// iteration count, so without this check a modest spec times a huge scale
// would dodge the [1, 5000000] bound Validate puts on Ops.
func checkSynthScale(spec *SynthSpec, scale int, v *ValidationError) {
	if spec == nil || scale <= 1 {
		return
	}
	ops := spec.internal().Normalize().Ops
	if ops > 0 && scale > synth.MaxOps/ops {
		v.add("scale", fmt.Sprint(scale),
			fmt.Sprintf("scale × ops exceeds the %d dynamic-instruction cap", synth.MaxOps))
	}
}

// workloadMeta is a fully resolved workload: display metadata, the effective
// scale and the program-build job.
type workloadMeta struct {
	name        string
	suite       string
	description string
	scale       int
	job         engine.Spec
}

// resolveWorkload validates a (bench, synth, scale) triple and resolves its
// metadata and program job.  The triple's problems join those already in v,
// and any problem comes back as v.
func resolveWorkload(bench string, spec *SynthSpec, scale int, v *ValidationError) (workloadMeta, error) {
	wl := Workload{Bench: bench, Synth: spec}
	wl.validate(v)
	if scale < 0 {
		v.add("scale", fmt.Sprint(scale), "must not be negative")
	}
	checkSynthScale(spec, scale, v)
	if err := v.errs(); err != nil {
		return workloadMeta{}, err
	}
	m := workloadMeta{name: wl.Name(), scale: scale}
	if wl.Synth != nil {
		if m.scale == 0 {
			m.scale = 1
		}
		m.suite = "synthetic"
		m.description = "generated synthetic workload (seeded parameterized dependence model)"
	} else {
		w, err := workload.Get(wl.Bench)
		if err != nil {
			return workloadMeta{}, err
		}
		if m.scale == 0 {
			m.scale = w.DefaultScale
		}
		m.suite = w.Suite.String()
		m.description = w.Description
	}
	m.job = wl.buildJob(m.scale)
	return m, nil
}
