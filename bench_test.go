package memdep_test

import (
	"context"
	"runtime"
	"testing"

	"memdep/internal/experiments"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/trace"
	"memdep/internal/window"
	"memdep/internal/workload"
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

// --- component micro-benchmarks ---------------------------------------------

// BenchmarkFunctionalSimulator measures the functional simulator on the
// compress stand-in (instructions per op reported through b.N scaling).
func BenchmarkFunctionalSimulator(b *testing.B) {
	prog := workload.MustGet("compress").Build(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Run(prog, trace.Config{MaxInstructions: 50_000}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowAnalysis measures the unrealistic OOO dependence analysis at
// the Tables 3-5 sizes over a preprocessed espresso work item (50k
// instructions), built outside the timer.
func BenchmarkWindowAnalysis(b *testing.B) {
	item, err := multiscalar.Preprocess(workload.MustGet("espresso").Build(1),
		trace.Config{MaxInstructions: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		window.Analyze(item, window.Config{})
	}
}

// BenchmarkSimulate measures the Multiscalar timing simulator with the ESYNC
// mechanism on the xlisp stand-in (8 stages, 50k instructions), the run
// BENCH_multiscalar.json tracks as simulate/event (cmd/memdep-perf).
func BenchmarkSimulate(b *testing.B) {
	item, err := multiscalar.Preprocess(workload.MustGet("xlisp").Build(1),
		trace.Config{MaxInstructions: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	cfg := multiscalar.DefaultConfig(8, policy.ESync)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiscalar.SimulateContext(context.Background(), item, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDPTLookup measures prediction-table load lookups on a warm
// table, once per table organization.  The fully associative and
// set-associative tables are one type, differing only in set count, so
// they share one indexed lookup; the store set reads its SSIT.
func BenchmarkMDPTLookup(b *testing.B) {
	for _, table := range []memdep.TableKind{memdep.TableFullAssoc, memdep.TableSetAssoc, memdep.TableStoreSet} {
		b.Run(table.String(), func(b *testing.B) {
			t := memdep.NewPredictor(memdep.Config{Entries: 64, SyncSlots: 8, Table: table, Ways: 4})
			for i := 0; i < 64; i++ {
				t.RecordMisspeculation(memdep.PairKey{LoadPC: uint64(0x1000 + 4*i), StorePC: uint64(0x2000 + 4*i)}, 1, 0)
			}
			var buf []memdep.Prediction
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = t.MatchesForLoad(uint64(0x1000+4*(i%64)), buf[:0])
			}
		})
	}
}

// BenchmarkMDSTSynchronize measures a full wait/signal round trip.
func BenchmarkMDSTSynchronize(b *testing.B) {
	const ids = 1 << 10
	t := memdep.NewMDST(512, ids)
	pair := memdep.PairKey{LoadPC: 0x400, StorePC: 0x380}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst := uint64(i)
		t.AllocWaiting(pair, inst, int64(i%ids))
		t.Signal(pair, inst, int64(i%ids))
	}
}

// BenchmarkDDCAccess measures data dependence cache accesses with a working
// set slightly larger than the cache.
func BenchmarkDDCAccess(b *testing.B) {
	d := memdep.NewDDC(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Access(memdep.PairKey{LoadPC: uint64(i % 160), StorePC: uint64(i % 40)})
	}
}

// BenchmarkWorkloadBuild measures synthetic program construction.
func BenchmarkWorkloadBuild(b *testing.B) {
	w := workload.MustGet("126.gcc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := w.Build(1)
		if p.Len() == 0 {
			b.Fatal("empty program")
		}
	}
}
