package experiments

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/stats"
	"memdep/internal/window"
	"memdep/internal/workload"
)

// Table1DynamicCounts reproduces Table 1: committed dynamic instruction
// counts per benchmark.  The counts are read from each benchmark's 8-stage
// ALWAYS simulation, which Figures 5-7 run too: a result carries its work
// item's committed counts and one commit per task, so a warm run prints the
// table from persisted results without loading a work item.
func (r *Runner) Table1DynamicCounts(ctx context.Context) (*stats.Table, error) {
	var names []string
	names = append(names, workload.SPECint92Names()...)
	names = append(names, workload.SPEC95Names()...)

	b := r.eng.NewBatch()
	refs := make([]engine.Ref, len(names))
	for i, name := range names {
		refs[i] = b.Add(r.simSpec(name, 8, policy.Always))
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	t := stats.NewTable("Table 1: committed dynamic instruction count per benchmark",
		"benchmark", "suite", "instructions", "loads", "stores", "tasks", "avg task")
	for i, name := range names {
		res := engine.Get[multiscalar.Result](b, refs[i])
		wl := workload.MustGet(name)
		t.AddRow(name, wl.Suite.String(),
			stats.FormatCount(res.Instructions),
			stats.FormatCount(res.Loads),
			stats.FormatCount(res.Stores),
			stats.FormatCount(res.Tasks),
			stats.FormatFloat(res.AvgTaskSize(), 1))
	}
	t.Note = "Synthetic stand-ins for the paper's SPEC binaries; see DESIGN.md for the substitution."
	return t, nil
}

// windowBatch runs the unrealistic OOO analysis for every SPECint92 benchmark
// as one parallel job set and returns the per-benchmark results in
// window-size order.  Tables 3-5 share these analyses: each reads its own
// columns of the same results.
func (r *Runner) windowBatch(ctx context.Context) (map[string][]window.Result, error) {
	b := r.eng.NewBatch()
	refs := map[string]engine.Ref{}
	for _, name := range workload.SPECint92Names() {
		refs[name] = b.Add(r.windowSpec(name))
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}
	perBench := make(map[string][]window.Result, len(refs))
	for _, name := range workload.SPECint92Names() {
		perBench[name] = engine.Get[[]window.Result](b, refs[name])
	}
	return perBench, nil
}

// Table3WindowMisspec reproduces Table 3: the number of dynamic memory
// dependences (worst-case mis-speculations) observed as a function of the
// window size, under the unrealistic OOO model.
func (r *Runner) Table3WindowMisspec(ctx context.Context) (*stats.Table, error) {
	perBench, err := r.windowBatch(ctx)
	if err != nil {
		return nil, err
	}
	cols := append([]string{"WS"}, workload.SPECint92Names()...)
	t := stats.NewTable("Table 3: unrealistic OOO model, dynamic memory dependences vs window size", cols...)
	for i, ws := range window.DefaultWindowSizes() {
		row := []string{fmt.Sprint(ws)}
		for _, name := range workload.SPECint92Names() {
			row = append(row, stats.FormatCount(perBench[name][i].Misspeculations))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table4StaticCoverage reproduces Table 4: the number of static dependences
// responsible for 99.9% of all mis-speculations, per window size.
func (r *Runner) Table4StaticCoverage(ctx context.Context) (*stats.Table, error) {
	perBench, err := r.windowBatch(ctx)
	if err != nil {
		return nil, err
	}
	cols := append([]string{"WS"}, workload.SPECint92Names()...)
	t := stats.NewTable("Table 4: static dependences covering 99.9% of mis-speculations", cols...)
	for i, ws := range window.DefaultWindowSizes() {
		row := []string{fmt.Sprint(ws)}
		for _, name := range workload.SPECint92Names() {
			row = append(row, fmt.Sprint(perBench[name][i].PairsForCoverage))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table5DDCMissRate reproduces Table 5: the miss rate (%) of data dependence
// caches of 32, 128 and 512 entries as a function of the window size.
func (r *Runner) Table5DDCMissRate(ctx context.Context) (*stats.Table, error) {
	ddcSizes := window.DefaultDDCSizes()
	perBench, err := r.windowBatch(ctx)
	if err != nil {
		return nil, err
	}
	cols := []string{"WS", "CS"}
	cols = append(cols, workload.SPECint92Names()...)
	t := stats.NewTable("Table 5: unrealistic OOO model, DDC miss rate (%) vs window size and DDC size", cols...)
	for i, ws := range window.DefaultWindowSizes() {
		for _, cs := range ddcSizes {
			row := []string{fmt.Sprint(ws), fmt.Sprint(cs)}
			for _, name := range workload.SPECint92Names() {
				row = append(row, stats.FormatPercent(perBench[name][i].DDCMissRate[cs]))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table6MultiscalarMisspec reproduces Table 6: the number of mis-speculations
// observed on the Multiscalar model (blind speculation) for 4 and 8 stages.
func (r *Runner) Table6MultiscalarMisspec(ctx context.Context) (*stats.Table, error) {
	b := r.eng.NewBatch()
	type rowRefs struct {
		stages int
		refs   []engine.Ref
	}
	var grid []rowRefs
	for _, stages := range stageCounts {
		rr := rowRefs{stages: stages}
		for _, name := range workload.SPECint92Names() {
			rr.refs = append(rr.refs, b.Add(r.simSpec(name, stages, policy.Always)))
		}
		grid = append(grid, rr)
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	cols := append([]string{"stages"}, workload.SPECint92Names()...)
	t := stats.NewTable("Table 6: Multiscalar model, mis-speculations under blind speculation", cols...)
	for _, rr := range grid {
		row := []string{fmt.Sprint(rr.stages)}
		for _, ref := range rr.refs {
			row = append(row, stats.FormatCount(engine.Get[multiscalar.Result](b, ref).Misspeculations))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// table7DDCSizes are the DDC sizes of Table 7.
func table7DDCSizes() []int { return []int{16, 32, 64, 128, 256, 512, 1024} }

// Table7MultiscalarDDC reproduces Table 7: DDC miss rates on the 8-stage
// Multiscalar configuration as a function of the DDC size.
func (r *Runner) Table7MultiscalarDDC(ctx context.Context) (*stats.Table, error) {
	b := r.eng.NewBatch()
	refs := map[string]engine.Ref{}
	for _, name := range workload.SPECint92Names() {
		cfg := r.simConfig(8, policy.Always)
		cfg.DDCSizes = table7DDCSizes()
		refs[name] = b.Add(r.simSpecWith(name, cfg))
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	cols := append([]string{"CS"}, workload.SPECint92Names()...)
	t := stats.NewTable("Table 7: 8-stage Multiscalar, DDC miss rate (%) vs DDC size", cols...)
	for _, cs := range table7DDCSizes() {
		row := []string{fmt.Sprint(cs)}
		for _, name := range workload.SPECint92Names() {
			res := engine.Get[multiscalar.Result](b, refs[name])
			row = append(row, stats.FormatPercent(res.DDCMissRate[cs]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table8PredictionBreakdown reproduces Table 8: the breakdown of dependence
// predictions (predicted/actual) for the SYNC and ESYNC predictors.
func (r *Runner) Table8PredictionBreakdown(ctx context.Context) (*stats.Table, error) {
	b := r.eng.NewBatch()
	type cellKey struct {
		stages int
		pol    policy.Kind
		name   string
	}
	refs := map[cellKey]engine.Ref{}
	for _, stages := range stageCounts {
		for _, pol := range []policy.Kind{policy.Sync, policy.ESync} {
			for _, name := range workload.SPECint92Names() {
				refs[cellKey{stages, pol, name}] = b.Add(r.simSpec(name, stages, pol))
			}
		}
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	cols := append([]string{"stages", "predictor", "P/A"}, workload.SPECint92Names()...)
	t := stats.NewTable("Table 8: dependence prediction breakdown (% of committed loads)", cols...)
	categories := []struct {
		label     string
		pred, act int
	}{
		{"N/N", 0, 0},
		{"N/Y", 0, 1},
		{"Y/N", 1, 0},
		{"Y/Y", 1, 1},
	}
	for _, stages := range stageCounts {
		for _, pol := range []policy.Kind{policy.Sync, policy.ESync} {
			for _, cat := range categories {
				row := []string{fmt.Sprint(stages), pol.String(), cat.label}
				for _, name := range workload.SPECint92Names() {
					res := engine.Get[multiscalar.Result](b, refs[cellKey{stages, pol, name}])
					row = append(row, stats.FormatPercent(res.Breakdown.Percent(cat.pred, cat.act)))
				}
				t.AddRow(row...)
			}
		}
	}
	t.Note = "N/Y rows are mis-speculations; Y/N rows are false dependence predictions (unnecessary delays)."
	return t, nil
}

// Table9MisspecPerLoad reproduces Table 9: mis-speculations per committed
// load under blind speculation and with the prediction/synchronization
// mechanism in place.
func (r *Runner) Table9MisspecPerLoad(ctx context.Context) (*stats.Table, error) {
	pols := []policy.Kind{policy.Always, policy.Sync, policy.ESync}

	b := r.eng.NewBatch()
	type rowKey struct {
		stages int
		pol    policy.Kind
	}
	refs := map[rowKey][]engine.Ref{}
	for _, stages := range stageCounts {
		for _, pol := range pols {
			var rr []engine.Ref
			for _, name := range workload.SPECint92Names() {
				rr = append(rr, b.Add(r.simSpec(name, stages, pol)))
			}
			refs[rowKey{stages, pol}] = rr
		}
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	cols := append([]string{"stages", "policy"}, workload.SPECint92Names()...)
	t := stats.NewTable("Table 9: mis-speculations per committed load", cols...)
	for _, stages := range stageCounts {
		for _, pol := range pols {
			row := []string{fmt.Sprint(stages), pol.String()}
			for _, ref := range refs[rowKey{stages, pol}] {
				res := engine.Get[multiscalar.Result](b, ref)
				row = append(row, stats.FormatFloat(res.MisspecsPerCommittedLoad(), 4))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
