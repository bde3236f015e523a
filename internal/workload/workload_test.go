package workload

import (
	"testing"

	"memdep/internal/program"
	"memdep/internal/trace"
)

func TestRegistryContainsAllPaperBenchmarks(t *testing.T) {
	var all []string
	all = append(all, SPECint92Names()...)
	all = append(all, SPEC95Names()...)
	for _, name := range all {
		w, err := Get(name)
		if err != nil {
			t.Errorf("missing benchmark %q: %v", name, err)
			continue
		}
		if w.Name != name {
			t.Errorf("workload %q registered under wrong name %q", name, w.Name)
		}
		if w.Description == "" {
			t.Errorf("workload %q has no description", name)
		}
		if w.DefaultScale < 1 {
			t.Errorf("workload %q has invalid default scale %d", name, w.DefaultScale)
		}
	}
	if len(SPECint92Names()) != 5 {
		t.Errorf("SPECint92 should have 5 benchmarks, got %d", len(SPECint92Names()))
	}
	if len(SPEC95Names()) != 18 {
		t.Errorf("SPEC95 should have 18 benchmarks, got %d", len(SPEC95Names()))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("does-not-exist"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGet("does-not-exist")
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() returned %d entries, registry has %d", len(names), len(registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

// TestBySuitePartitionsRegistry checks that the three suites' name lists
// partition the registry: each name is registered once, under its suite.
func TestBySuitePartitionsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for s, names := range map[Suite][]string{
		SPECint92: SPECint92Names(),
		SPECint95: SPECint95Names(),
		SPECfp95:  SPECfp95Names(),
	} {
		for _, name := range names {
			if seen[name] {
				t.Errorf("workload %q is listed twice", name)
			}
			seen[name] = true
			if w := MustGet(name); w.Suite != s {
				t.Errorf("workload %q has suite %v, expected %v", name, w.Suite, s)
			}
		}
	}
	if len(seen) != len(registry) {
		t.Errorf("suites cover %d workloads, registry has %d", len(seen), len(registry))
	}
}

func TestSuiteString(t *testing.T) {
	if SPECint92.String() != "SPECint92" || SPECfp95.String() != "SPECfp95" {
		t.Error("suite names wrong")
	}
	if Suite(99).String() == "" {
		t.Error("unknown suite must still produce a string")
	}
}

// TestAllWorkloadsBuildAndValidate builds every workload at scale 1 and checks
// the program is structurally valid.
func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustGet(name)
			p := w.Build(1)
			if err := p.Validate(); err != nil {
				t.Fatalf("program invalid: %v", err)
			}
			if len(p.StaticLoads()) == 0 {
				t.Error("workload has no loads")
			}
			if len(p.StaticStores()) == 0 {
				t.Error("workload has no stores")
			}
			if len(p.TaskEntries) < 2 {
				t.Error("workload has fewer than 2 task entries")
			}
		})
	}
}

// TestAllWorkloadsRunToCompletion executes every workload at scale 1 in the
// functional simulator and checks that it halts within a sane instruction
// budget and produces memory traffic and tasks.
func TestAllWorkloadsRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("functional runs of all workloads are skipped in -short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustGet(name)
			p := w.Build(1)
			st, err := trace.Run(p, trace.Config{MaxInstructions: 5_000_000}, nil)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if !st.Halted {
				t.Fatalf("workload did not halt within 5M instructions (executed %d)", st.Instructions)
			}
			if st.Instructions < 1000 {
				t.Errorf("suspiciously short run: %d instructions", st.Instructions)
			}
			if st.Loads == 0 || st.Stores == 0 {
				t.Error("run produced no memory traffic")
			}
			if st.Tasks < 10 {
				t.Errorf("run produced only %d tasks", st.Tasks)
			}
			if st.Branches == 0 {
				t.Error("run produced no branches")
			}
		})
	}
}

// TestWorkloadsDeterministic checks that building and running a workload twice
// produces identical statistics.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range SPECint92Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustGet(name)
			s1, err := trace.Run(w.Build(1), trace.Config{MaxInstructions: 200_000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := trace.Run(w.Build(1), trace.Config{MaxInstructions: 200_000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s1 != s2 {
				t.Errorf("non-deterministic run: %+v vs %+v", s1, s2)
			}
		})
	}
}

// TestScaleIncreasesWork checks that larger scales run more instructions.
func TestScaleIncreasesWork(t *testing.T) {
	w := MustGet("compress")
	s1, err := trace.Run(w.Build(1), trace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := trace.Run(w.Build(2), trace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Instructions <= s1.Instructions {
		t.Errorf("scale 2 (%d instr) not larger than scale 1 (%d instr)",
			s2.Instructions, s1.Instructions)
	}
}

// TestScaleBelowOneClamped checks that scale 0 behaves like scale 1.
func TestScaleBelowOneClamped(t *testing.T) {
	w := MustGet("espresso")
	s0, err := trace.Run(w.Build(0), trace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := trace.Run(w.Build(1), trace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Instructions != s1.Instructions {
		t.Errorf("scale 0 (%d) and scale 1 (%d) differ", s0.Instructions, s1.Instructions)
	}
}

// TestWithNameDoesNotMutateOriginal checks the SPEC95 renaming helper.
func TestWithNameDoesNotMutateOriginal(t *testing.T) {
	p := buildCompress(1)
	q := withName(p, "renamed")
	if q.Name != "renamed" {
		t.Errorf("renamed program has name %q", q.Name)
	}
	if p.Name != "compress" {
		t.Errorf("original program was renamed to %q", p.Name)
	}
	if len(q.Code) != len(p.Code) {
		t.Error("rename must not change the code")
	}
}

// TestCrossTaskDependencesExist verifies, for each SPECint92 workload, that
// the committed trace contains store→load dependences that cross task
// boundaries -- the raw material of the paper's study.  Without these the
// Multiscalar experiments would be vacuous.
func TestCrossTaskDependencesExist(t *testing.T) {
	for _, name := range SPECint92Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustGet(name)
			p := w.Build(1)
			lastStore := map[uint64]trace.DynInst{} // addr -> most recent store
			crossTask := 0
			_, err := trace.Run(p, trace.Config{MaxInstructions: 300_000}, func(d trace.DynInst) bool {
				if d.IsStore() {
					lastStore[d.Addr] = d
				} else if d.IsLoad() {
					if st, ok := lastStore[d.Addr]; ok && st.TaskID != d.TaskID {
						crossTask++
					}
				}
				return crossTask < 100
			})
			if err != nil {
				t.Fatal(err)
			}
			if crossTask < 100 {
				t.Errorf("only %d cross-task store→load dependences observed", crossTask)
			}
		})
	}
}

// TestTaskSizesReasonable checks that average dynamic task sizes are in the
// regime the paper describes (small irregular tasks for gcc, ~100-instruction
// tasks for espresso, very large tasks for 145.fpppp).
func TestTaskSizesReasonable(t *testing.T) {
	avgTask := func(p *program.Program) float64 {
		st, err := trace.Run(p, trace.Config{MaxInstructions: 400_000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tasks == 0 {
			t.Fatal("no tasks")
		}
		return float64(st.Instructions) / float64(st.Tasks)
	}
	esp := avgTask(MustGet("espresso").Build(1))
	if esp < 50 {
		t.Errorf("espresso average task size %.1f, want >= 50", esp)
	}
	fpppp := avgTask(MustGet("145.fpppp").Build(1))
	if fpppp < 400 {
		t.Errorf("145.fpppp average task size %.1f, want >= 400 (very large tasks)", fpppp)
	}
	comp := avgTask(MustGet("compress").Build(1))
	if comp > 200 {
		t.Errorf("compress average task size %.1f, want <= 200 (per-character tasks)", comp)
	}
}
