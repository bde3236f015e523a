package memdep_test

import (
	"context"
	"strings"
	"testing"

	"memdep/internal/experiments"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
)

// These integration tests exercise the whole pipeline -- workload
// construction, functional simulation, dependence analysis, timing simulation
// and experiment drivers -- and check the cross-cutting invariants that the
// paper's methodology relies on.

// TestEndToEndInvariantsPerBenchmark checks, for each SPECint92 stand-in:
// the committed work is identical across all speculation policies, the
// oracle policies never mis-speculate, blind speculation does mis-speculate,
// and the prediction mechanism removes most of those mis-speculations.
func TestEndToEndInvariantsPerBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs are skipped in -short mode")
	}
	for _, name := range workload.SPECint92Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			item, err := multiscalar.Preprocess(workload.MustGet(name).Build(1),
				trace.Config{MaxInstructions: 50_000})
			if err != nil {
				t.Fatal(err)
			}
			results := map[policy.Kind]multiscalar.Result{}
			for _, pol := range policy.All() {
				res, err := multiscalar.SimulateContext(context.Background(), item, multiscalar.DefaultConfig(8, pol))
				if err != nil {
					t.Fatalf("%v: %v", pol, err)
				}
				results[pol] = res
			}
			// Committed work identical across policies.
			ref := results[policy.Never]
			for pol, res := range results {
				if res.Instructions != ref.Instructions || res.Loads != ref.Loads || res.Tasks != ref.Tasks {
					t.Errorf("%v commits different work than NEVER", pol)
				}
			}
			// Oracle policies never mis-speculate.
			for _, pol := range []policy.Kind{policy.Never, policy.Wait, policy.PerfectSync} {
				if results[pol].Misspeculations != 0 {
					t.Errorf("%v mis-speculated %d times", pol, results[pol].Misspeculations)
				}
			}
			// Blind speculation mis-speculates on every one of these programs.
			if results[policy.Always].Misspeculations == 0 {
				t.Error("ALWAYS should mis-speculate")
			}
			// The mechanism removes the bulk of the mis-speculations.
			if results[policy.Sync].Misspeculations*2 > results[policy.Always].Misspeculations {
				t.Errorf("SYNC left %d of %d mis-speculations",
					results[policy.Sync].Misspeculations, results[policy.Always].Misspeculations)
			}
			// Speculation beats no speculation.
			if results[policy.Always].Cycles >= results[policy.Never].Cycles {
				t.Error("ALWAYS should beat NEVER")
			}
		})
	}
}

// TestWindowModelConsistentWithMultiscalarLearning checks that the static
// pairs the Multiscalar run mis-speculates on are a subset of the pairs the
// window model identifies as dependences (the window model is the worst
// case, so anything the processor trips over must be visible to it).
func TestWindowModelConsistentWithMultiscalarLearning(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs are skipped in -short mode")
	}
	// One work item feeds both models, as in the experiment sweep.
	item, err := multiscalar.Preprocess(workload.MustGet("compress").Build(1), trace.Config{MaxInstructions: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	windowRes := window.Analyze(item, window.Config{WindowSizes: []int{512}, DDCSizes: []int{512}})
	res, err := multiscalar.SimulateContext(context.Background(), item, multiscalar.DefaultConfig(8, policy.Always))
	if err != nil {
		t.Fatal(err)
	}
	// The ARB names the store that detected the violation, which is not
	// necessarily the program-order-closest producer the window model
	// records, so compare at the granularity of load PCs: any load the
	// processor trips over must be one the worst-case window model flags as
	// having an in-window dependence.
	knownLoads := map[uint64]bool{}
	for pair := range windowRes[0].PairCounts {
		knownLoads[pair.LoadPC] = true
	}
	for pair := range res.MisspecPairs {
		if !knownLoads[pair.LoadPC] {
			t.Errorf("Multiscalar mis-speculated on load %#x, which the 512-instruction window model never flags", pair.LoadPC)
		}
	}
}

// TestExperimentTablesRenderAndAgree runs a pair of experiment drivers twice
// on fresh runners and checks the rendered output is identical
// (deterministic end to end) and mentions every benchmark it should.
func TestExperimentTablesRenderAndAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs are skipped in -short mode")
	}
	render := func() (string, string) {
		r := experiments.NewRunnerWithEngine(experiments.Quick(), experiments.NewEngine(0))
		t6, err := r.Table6MultiscalarMisspec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		f6, err := r.Figure6MechanismSpeedup(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return t6.Render(), f6.Render()
	}
	t6a, f6a := render()
	t6b, f6b := render()
	if t6a != t6b || f6a != f6b {
		t.Error("experiment output is not deterministic across fresh runners")
	}
	for _, name := range workload.SPECint92Names() {
		if !strings.Contains(t6a, name) && !strings.Contains(f6a, name) {
			t.Errorf("benchmark %s missing from experiment output", name)
		}
	}
}

// TestSpec95WorkloadsSimulateUnderMechanism runs a representative slice of
// the SPEC95 stand-ins (one per behavioural regime from DESIGN.md) through
// the full mechanism to guard the Figure 7 path.
func TestSpec95WorkloadsSimulateUnderMechanism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs are skipped in -short mode")
	}
	for _, name := range []string{"124.m88ksim", "101.tomcatv", "102.swim", "145.fpppp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			item, err := multiscalar.Preprocess(workload.MustGet(name).Build(1),
				trace.Config{MaxInstructions: 40_000})
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range []policy.Kind{policy.Always, policy.ESync, policy.PerfectSync} {
				res, err := multiscalar.SimulateContext(context.Background(), item, multiscalar.DefaultConfig(8, pol))
				if err != nil {
					t.Fatalf("%v: %v", pol, err)
				}
				if res.Instructions != item.Instructions {
					t.Errorf("%v committed %d of %d instructions", pol, res.Instructions, item.Instructions)
				}
				if pol == policy.PerfectSync && res.Misspeculations != 0 {
					t.Errorf("PSYNC mis-speculated %d times", res.Misspeculations)
				}
			}
		})
	}
}
