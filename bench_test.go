package memdep_test

import (
	"context"
	"runtime"
	"testing"

	"memdep/internal/experiments"
)

// benchExperiment runs one named experiment end-to-end (workload
// construction, functional simulation, timing simulation, table formatting)
// on the truncated "quick" configuration.  There is one benchmark per table
// and figure of the paper.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := experiments.Quick()
		runner := experiments.NewRunnerWithEngine(opts, experiments.NewEngine(opts.Jobs))
		tab, err := exp.Run(runner, context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if tab.NumRows() == 0 {
			b.Fatal("experiment produced an empty table")
		}
	}
}

// Table 1: committed dynamic instruction counts.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Table 3: unrealistic OOO model, mis-speculations vs window size.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Table 4: static dependences covering 99.9% of mis-speculations.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Table 5: DDC miss rates under the unrealistic OOO model.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Table 6: Multiscalar mis-speculations under blind speculation.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// Table 7: 8-stage Multiscalar DDC miss rates.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// Table 8: dependence prediction breakdown.
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// Table 9: mis-speculations per committed load.
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// Figure 5: NEVER/ALWAYS/WAIT/PSYNC policy comparison.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// Figure 6: SYNC/ESYNC/PSYNC speedups over blind speculation.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// Figure 7: SPEC95 speedups on the 8-stage configuration.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "figure7") }

// Ablation benches for the design choices called out in DESIGN.md.
func BenchmarkAblationTagging(b *testing.B)   { benchExperiment(b, "ablation-tagging") }
func BenchmarkAblationPredictor(b *testing.B) { benchExperiment(b, "ablation-predictor") }
func BenchmarkAblationTableSize(b *testing.B) { benchExperiment(b, "ablation-tablesize") }

// --- engine benchmarks -------------------------------------------------------

// benchEngineGrid runs a representative slice of the experiment grid (the
// Multiscalar timing tables that dominate a full sweep) on a fresh engine
// with the given worker-pool size.  Comparing the Serial and Parallel
// variants measures the engine's wall-clock speedup on a multi-core host;
// the produced tables are byte-identical by construction.
func benchEngineGrid(b *testing.B, jobs int) {
	b.Helper()
	opts := experiments.Quick()
	opts.Jobs = jobs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner := experiments.NewRunnerWithEngine(opts, experiments.NewEngine(opts.Jobs)) // cold cache each iteration
		for _, id := range []string{"table6", "table9", "figure6"} {
			exp, err := experiments.Lookup(id)
			if err != nil {
				b.Fatal(err)
			}
			tab, err := exp.Run(runner, context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if tab.NumRows() == 0 {
				b.Fatal("experiment produced an empty table")
			}
		}
	}
}

// BenchmarkEngineSerial pins the experiment engine to one worker.
func BenchmarkEngineSerial(b *testing.B) { benchEngineGrid(b, 1) }

// BenchmarkEngineParallel runs the same grid on a GOMAXPROCS-sized pool.
func BenchmarkEngineParallel(b *testing.B) { benchEngineGrid(b, runtime.GOMAXPROCS(0)) }
