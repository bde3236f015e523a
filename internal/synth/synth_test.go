package synth

import (
	"reflect"
	"strings"
	"testing"

	"memdep/internal/multiscalar"
	"memdep/internal/trace"
	"memdep/internal/window"
)

// TestBuildDeterministic pins the core contract: the same spec and seed
// produce a byte-identical program (and hence a byte-identical committed
// trace), on every call.
func TestBuildDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, AliasSetSize: 4, LoopCarried: 0.5}
	a := spec.Build(1)
	b := spec.Build(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds of the same spec differ")
	}
	if a.Disassemble() != b.Disassemble() {
		t.Fatal("disassemblies of the same spec differ")
	}
	// The committed streams are identical too.
	sa := mustTrace(t, spec)
	sb := mustTrace(t, spec)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("trace stats differ: %+v vs %+v", sa, sb)
	}
}

// TestSeedsDiffer checks that different seeds produce structurally different
// programs with different dependence profiles.
func TestSeedsDiffer(t *testing.T) {
	a := Spec{Seed: 1}
	b := Spec{Seed: 2}
	if a.Build(1).Disassemble() == b.Build(1).Disassemble() {
		t.Fatal("seeds 1 and 2 built identical programs")
	}
	ra := analyze(t, a)
	rb := analyze(t, b)
	if ra.Misspeculations == rb.Misspeculations && ra.StaticPairs == rb.StaticPairs {
		t.Fatalf("seeds 1 and 2 have identical dependence profiles: %+v", ra)
	}
}

// TestKnobsShapeProfile checks that the model's knobs move the observable
// dependence profile in the expected direction.
func TestKnobsShapeProfile(t *testing.T) {
	base := Spec{Seed: 7}
	// A dependence-free spec misses every engineered dependence.
	none := base
	none.DepFrac = 0.0001
	if rn, rb := analyze(t, none), analyze(t, base); rn.Misspeculations >= rb.Misspeculations {
		t.Errorf("dep_frac ~0 should shrink window mis-speculations: %d vs %d",
			rn.Misspeculations, rb.Misspeculations)
	}
	// Large alias sets make dependences fire on a fraction of iterations.
	sparse := base
	sparse.AliasSetSize = 16
	if rs, rb := analyze(t, sparse), analyze(t, base); rs.Misspeculations >= rb.Misspeculations {
		t.Errorf("alias_set_size 16 should shrink realized dependences: %d vs %d",
			rs.Misspeculations, rb.Misspeculations)
	}
}

// TestBuildTargetsOps checks the dynamic length lands near the requested
// trace length and that scale multiplies it.
func TestBuildTargetsOps(t *testing.T) {
	spec := Spec{Seed: 3, Ops: 10_000}
	st := mustTrace(t, spec)
	if st.Instructions < 8_000 || st.Instructions > 20_000 {
		t.Errorf("ops target 10000: committed %d instructions", st.Instructions)
	}
	if !st.Halted {
		t.Error("run did not halt")
	}
	if st.Tasks < 10 {
		t.Errorf("only %d tasks", st.Tasks)
	}
	stScaled := mustTraceScaled(t, spec, 3)
	if stScaled.Instructions < 2*st.Instructions {
		t.Errorf("scale 3 did not scale the run: %d vs %d", stScaled.Instructions, st.Instructions)
	}
}

// TestTaskSizes checks the task-size distribution tracks the spec.
func TestTaskSizes(t *testing.T) {
	spec := Spec{Seed: 11, TaskSize: 20, TaskSpread: 4}
	st := mustTrace(t, spec)
	avg := float64(st.Instructions) / float64(st.Tasks)
	if avg < 10 || avg > 40 {
		t.Errorf("task size target 20±4: average %.1f", avg)
	}
}

// TestNormalizeAndKey pins default materialization and key stability.
func TestNormalizeAndKey(t *testing.T) {
	n := Spec{}.Normalize()
	if n.Name != DefaultName || n.Ops != DefaultOps || n.Body != DefaultBody {
		t.Fatalf("zero spec normalized to %+v", n)
	}
	if len(n.DepDists) == 0 || n.AliasSetSize != 1 {
		t.Fatalf("zero spec normalized to %+v", n)
	}
	// LoopCarried has no default: zero means no loop-carried dependences.
	if n.LoopCarried != 0 {
		t.Errorf("zero LoopCarried normalized to %v, want 0", n.LoopCarried)
	}
	// Alias sizes round up to powers of two.
	if got := (Spec{AliasSetSize: 5}).Normalize().AliasSetSize; got != 8 {
		t.Errorf("alias 5 normalized to %d, want 8", got)
	}
	// The key is the canonical JSON of the normalized spec: the zero spec
	// and its normalized form share one identity.
	if (Spec{}).CanonicalJSON() != (Spec{}).Normalize().CanonicalJSON() {
		t.Error("zero spec and normalized spec have different keys")
	}
	if !strings.Contains((Spec{}).CanonicalJSON(), `"name":"synth"`) {
		t.Errorf("key is not canonical JSON: %s", (Spec{}).CanonicalJSON())
	}
	if (Spec{Seed: 1}).CanonicalJSON() == (Spec{Seed: 2}).CanonicalJSON() {
		t.Error("different seeds share a key")
	}
}

// TestValidate is table-driven over the field bounds.
func TestValidate(t *testing.T) {
	valid := []Spec{
		{},
		{Seed: 9, Ops: 1000, Body: 64, TaskSize: 16, TaskSpread: 4},
		{LoadFrac: 0.5, StoreFrac: 0.45},
		{DepDists: []DistBucket{{Dist: 1, Weight: 1}}},
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid[%d]: %v", i, err)
		}
	}
	invalid := map[string]Spec{
		"ops":          {Ops: 50_000_000},
		"body":         {Body: 4},
		"task_size":    {TaskSize: 2},
		"load_frac":    {LoadFrac: 1.5},
		"frac_sum":     {LoadFrac: 0.6, StoreFrac: 0.6},
		"dep_dists":    {DepDists: []DistBucket{{Dist: 0, Weight: 1}}},
		"dist_weight":  {DepDists: []DistBucket{{Dist: 8, Weight: -1}}},
		"alias":        {AliasSetSize: 100_000},
		"default_sum":  {StoreFrac: 0.9}, // defaulted load_frac 0.25 pushes the mix past 0.95
		"loop_carried": {LoopCarried: -0.5},
	}
	for name, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected a validation error for %+v", name, s)
		}
		if len(s.Problems()) == 0 {
			t.Errorf("%s: no problems reported", name)
		}
	}
}

// mustTrace builds and functionally executes a spec at scale 1.
func mustTrace(t *testing.T, spec Spec) trace.Stats {
	t.Helper()
	return mustTraceScaled(t, spec, 1)
}

func mustTraceScaled(t *testing.T, spec Spec, scale int) trace.Stats {
	t.Helper()
	st, err := trace.Run(spec.Build(scale), trace.Config{}, nil)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return st
}

// analyze runs the unrealistic-OOO window model over a spec's committed
// stream, returning the 64-instruction window result.
func analyze(t *testing.T, spec Spec) window.Result {
	t.Helper()
	w, err := multiscalar.Preprocess(spec.Build(1), trace.Config{})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return window.Analyze(w, window.Config{WindowSizes: []int{64}})[0]
}

// TestNormalizeRobustToAbsurdAlias pins the ceilPow2 guard: Normalize runs
// on raw specs before validation and must terminate for any input.
func TestNormalizeRobustToAbsurdAlias(t *testing.T) {
	n := Spec{AliasSetSize: 1<<62 + 1}.Normalize()
	if n.AliasSetSize < 1 {
		t.Fatalf("normalized alias %d", n.AliasSetSize)
	}
	if err := (Spec{AliasSetSize: 1<<62 + 1}).Validate(); err == nil {
		t.Fatal("absurd alias size validated")
	}
}

// TestBuildClampsScale pins the Build safety net: an over-scaled build is
// clamped near MaxOps instead of running unbounded.
func TestBuildClampsScale(t *testing.T) {
	p := Spec{Ops: 1000, Body: 100}.Build(1 << 40)
	st, err := trace.Run(p, trace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions > 2*MaxOps {
		t.Fatalf("clamped build still committed %d instructions", st.Instructions)
	}
	if !st.Halted {
		t.Fatal("clamped build did not halt")
	}
}
