package sim

import (
	"encoding/json"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/synth"
	"memdep/internal/workload"
)

// DistBucket is one bucket of a synthetic workload's dependence-distance
// histogram: go doc memdep/internal/synth.DistBucket.
type DistBucket = synth.DistBucket

// SynthSpec parameterizes a synthetic workload: a seeded, deterministic
// generator whose committed instruction stream follows the described
// memory-dependence model.  It is the generator's own type, so its fields,
// JSON names and methods (Normalize, Problems, Validate, CanonicalJSON,
// Build) are documented there: go doc memdep/internal/synth.Spec.  The same
// spec and seed always produce a byte-identical program -- and therefore
// byte-identical traces and DeepEqual simulation results -- at every engine
// worker count, on every platform.  Request.Validate, and every Session
// method that takes a spec, report its problems as *ValidationError fields
// named "synth.<field>".
type SynthSpec = synth.Spec

// validateSynth appends the spec's field problems to v, prefixing field
// names with "synth.".
func validateSynth(spec *SynthSpec, v *ValidationError) {
	for _, p := range spec.Problems() {
		v.add("synth."+p.Field, p.Value, p.Msg)
	}
}

// Workload identifies the workload of a request: exactly one of Bench (a
// benchmark of the committed synthetic suite, see Benchmarks) or Synth (an
// inline synthetic-workload spec).
type Workload struct {
	Bench string     `json:"bench,omitempty"` // Bench names a benchmark of the committed suite.
	Synth *SynthSpec `json:"synth,omitempty"` // Synth is an inline synthetic-workload spec.
}

// validate appends the workload's problems to v.
func (w Workload) validate(v *ValidationError) {
	switch {
	case w.Bench == "" && w.Synth == nil:
		v.add("bench", "", "a benchmark name or a synthetic spec is required")
	case w.Bench != "" && w.Synth != nil:
		v.add("bench", w.Bench, "bench and synth are mutually exclusive")
	case w.Synth != nil:
		validateSynth(w.Synth, v)
	default:
		if _, err := workload.Get(w.Bench); err != nil {
			v.add("bench", w.Bench, "unknown benchmark")
		}
	}
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
		return w.Synth.Normalize().Name
	}
	return w.Bench
}

// buildJob returns the engine spec that resolves to the workload's program.
// A synthetic job holds the normalized copy of the spec, so the memoized job
// never shares the caller's DepDists.
func (w Workload) buildJob(scale int) engine.Spec {
	if w.Synth != nil {
		return synth.BuildJob{Spec: w.Synth.Normalize(), Scale: scale}
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
	ops := spec.Normalize().Ops
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
