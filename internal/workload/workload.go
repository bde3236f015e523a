// Package workload provides the synthetic benchmark suite used by the
// experiments.
//
// The paper evaluates its mechanism on SPECint92 (compress, espresso, gcc,
// sc, xlisp) and on SPECint95/SPECfp95 binaries compiled by the Multiscalar
// compiler.  Neither the binaries nor their inputs are available here, so
// each benchmark is replaced by a synthetic program -- written in the
// repository's own ISA -- that reproduces the *memory dependence structure*
// that drives the paper's results: a small number of hot static store→load
// pairs with strong temporal locality, loop-carried recurrences through
// memory, dependences that are spread across many unrelated stores, and (for
// some programs) dependences that occur only along particular control paths.
// DESIGN.md documents the substitution per benchmark.
//
// Every workload is deterministic: its "input data" is generated by an
// in-program linear congruential generator seeded at build time.
package workload

import (
	"fmt"
	"sort"

	"memdep/internal/program"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite int

// The suites of the paper's evaluation.
const (
	SPECint92 Suite = iota
	SPECint95
	SPECfp95
)

// String implements fmt.Stringer.
func (s Suite) String() string {
	switch s {
	case SPECint92:
		return "SPECint92"
	case SPECint95:
		return "SPECint95"
	case SPECfp95:
		return "SPECfp95"
	default:
		return fmt.Sprintf("suite(%d)", int(s))
	}
}

// Workload is a named synthetic benchmark.
type Workload struct {
	// Name is the benchmark name as used in the paper's tables (for example
	// "compress" or "101.tomcatv").
	Name string
	// Suite is the benchmark suite.
	Suite Suite
	// Description summarises what the original program does and what the
	// synthetic stand-in models.
	Description string
	// DefaultScale is the scale factor used by the full experiment runs.
	DefaultScale int
	// Build constructs the program at the given scale.  Scale values below 1
	// are treated as 1.  Larger scales increase loop trip counts (and hence
	// dynamic instruction counts) roughly linearly.
	Build func(scale int) *program.Program
}

// registry holds all known workloads keyed by name.
var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic("workload: duplicate registration of " + w.Name)
	}
	if w.Build == nil {
		panic("workload: " + w.Name + " has no builder")
	}
	if w.DefaultScale < 1 {
		w.DefaultScale = 1
	}
	registry[w.Name] = w
}

// Get returns the workload with the given name.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return w, nil
}

// MustGet is like Get but panics on unknown names.  It is used by the
// experiment drivers, whose benchmark lists are fixed.
func MustGet(name string) Workload {
	w, err := Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Names returns the names of all registered workloads in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SPECint92Names returns the five SPECint92 benchmarks in the order the paper
// lists them.
func SPECint92Names() []string {
	return []string{"compress", "espresso", "gcc", "sc", "xlisp"}
}

// SPECint95Names returns the SPECint95 benchmarks in the order of Figure 7.
func SPECint95Names() []string {
	return []string{
		"099.go", "124.m88ksim", "126.gcc", "129.compress",
		"130.li", "132.ijpeg", "134.perl", "147.vortex",
	}
}

// SPECfp95Names returns the SPECfp95 benchmarks in the order of Figure 7.
func SPECfp95Names() []string {
	return []string{
		"101.tomcatv", "102.swim", "103.su2cor", "104.hydro2d",
		"107.mgrid", "110.applu", "125.turb3d", "141.apsi",
		"145.fpppp", "146.wave5",
	}
}

// SPEC95Names returns the SPECint95 and SPECfp95 benchmarks in Figure 7
// order.
func SPEC95Names() []string {
	return append(SPECint95Names(), SPECfp95Names()...)
}
