// Package synthflag provides the shared -synth flag family of the CLIs:
// every binary that accepts a workload can swap the named benchmark for an
// inline synthetic spec (memdep/sim.SynthSpec) described entirely on the
// command line.
package synthflag

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"memdep/sim"
)

// Flags holds the registered -synth flag family.
type Flags struct {
	enabled bool

	name       string
	seed       uint64
	ops        int
	body       int
	taskSize   int
	taskSpread int
	loads      float64
	stores     float64
	deps       float64
	dist       string
	alias      int
	carried    float64

	fs *flag.FlagSet
}

// Register installs the -synth flag family on fs.  Zero values leave the
// generator defaults in place, so `-synth` alone selects the default
// synthetic workload.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.BoolVar(&f.enabled, "synth", false, "simulate a generated synthetic workload instead of a named benchmark (the -synth-* flags parameterize it; any of them implies -synth)")
	fs.StringVar(&f.name, "synth-name", "", "synthetic workload display name (default \"synth\")")
	fs.Uint64Var(&f.seed, "synth-seed", 0, "synthetic generator seed; the same spec and seed always reproduce the same workload")
	fs.IntVar(&f.ops, "synth-ops", 0, "approximate committed dynamic instructions (0 = 32768)")
	fs.IntVar(&f.body, "synth-body", 0, "approximate static loop-body length (0 = 512)")
	fs.IntVar(&f.taskSize, "synth-task", 0, "mean task size in instructions (0 = 28)")
	fs.IntVar(&f.taskSpread, "synth-task-spread", 0, "half-width of the task-size distribution (0 = 12)")
	fs.Float64Var(&f.loads, "synth-loads", 0, "fraction of body slots that are loads (0 = 0.25)")
	fs.Float64Var(&f.stores, "synth-stores", 0, "fraction of body slots that are stores (0 = 0.15)")
	fs.Float64Var(&f.deps, "synth-deps", 0, "fraction of loads given an engineered store→load dependence (0 = 0.5)")
	fs.StringVar(&f.dist, "synth-dist", "", "dependence-distance histogram as dist:weight pairs, e.g. \"8:4,32:2,128:1\" (\"\" = that default)")
	fs.IntVar(&f.alias, "synth-alias", 0, "alias-set size: each dependence fires every k-th iteration only (0 = 1, every iteration)")
	fs.Float64Var(&f.carried, "synth-carried", 0, "fraction of dependences carried from the previous loop iteration (0 = none)")
	return f
}

// ResolveBench combines the family with a -bench flag value: it returns the
// effective (bench, spec) workload selection, where the bench name is
// emptied when the family is in use.  An explicitly set -bench together
// with the family is an error; the bench flag's default value is not a
// conflict.
func (f *Flags) ResolveBench(bench string) (string, *sim.SynthSpec, error) {
	spec, err := f.Spec()
	if err != nil || spec == nil {
		return bench, spec, err
	}
	benchSet := false
	f.fs.Visit(func(fl *flag.Flag) { benchSet = benchSet || fl.Name == "bench" })
	if benchSet {
		return "", nil, fmt.Errorf("set either -bench or the -synth family, not both")
	}
	return "", spec, nil
}

// Spec returns the synthetic spec described by the flags, or nil when the
// family was not used.  Passing any -synth-* parameter implies -synth.
func (f *Flags) Spec() (*sim.SynthSpec, error) {
	used := f.enabled
	f.fs.Visit(func(fl *flag.Flag) {
		if strings.HasPrefix(fl.Name, "synth-") {
			used = true
		}
	})
	if !used {
		return nil, nil
	}
	spec := &sim.SynthSpec{
		Name:         f.name,
		Seed:         f.seed,
		Ops:          f.ops,
		Body:         f.body,
		TaskSize:     f.taskSize,
		TaskSpread:   f.taskSpread,
		LoadFrac:     f.loads,
		StoreFrac:    f.stores,
		DepFrac:      f.deps,
		AliasSetSize: f.alias,
		LoopCarried:  f.carried,
	}
	if f.dist != "" {
		dists, err := ParseDist(f.dist)
		if err != nil {
			return nil, err
		}
		spec.DepDists = dists
	}
	return spec, nil
}

// ParseDist parses a dependence-distance histogram of the form
// "dist:weight,dist:weight,..."; a bare "dist" means weight 1.
func ParseDist(s string) ([]sim.DistBucket, error) {
	var out []sim.DistBucket
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		distStr, weightStr, hasWeight := strings.Cut(part, ":")
		dist, err := strconv.Atoi(strings.TrimSpace(distStr))
		if err != nil {
			return nil, fmt.Errorf("invalid -synth-dist entry %q: bad distance", part)
		}
		weight := 1
		if hasWeight {
			weight, err = strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil {
				return nil, fmt.Errorf("invalid -synth-dist entry %q: bad weight", part)
			}
		}
		out = append(out, sim.DistBucket{Dist: dist, Weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("invalid -synth-dist %q: no buckets", s)
	}
	return out, nil
}
