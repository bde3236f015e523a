package experiments

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/stats"
	"memdep/internal/workload"
)

// Figure5PolicyComparison reproduces Figure 5: the IPC of the NEVER policy
// and the speedups (%) of ALWAYS, WAIT and PSYNC relative to NEVER, for 4-
// and 8-stage Multiscalar processors on the SPECint92 benchmarks.
func (r *Runner) Figure5PolicyComparison(ctx context.Context) (*stats.Table, error) {
	compared := []policy.Kind{policy.Always, policy.Wait, policy.PerfectSync}

	b := r.eng.NewBatch()
	type cell struct {
		stages int
		name   string
		never  engine.Ref
		pols   []engine.Ref
	}
	var cells []cell
	for _, stages := range stageCounts {
		for _, name := range workload.SPECint92Names() {
			c := cell{stages: stages, name: name, never: b.Add(r.simSpec(name, stages, policy.Never))}
			for _, pol := range compared {
				c.pols = append(c.pols, b.Add(r.simSpec(name, stages, pol)))
			}
			cells = append(cells, c)
		}
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	t := stats.NewTable("Figure 5: dependence speculation policies, speedup (%) over NEVER",
		"stages", "benchmark", "NEVER IPC", "ALWAYS", "WAIT", "PSYNC")
	for _, c := range cells {
		never := engine.Get[multiscalar.Result](b, c.never)
		row := []string{fmt.Sprint(c.stages), c.name, stats.FormatFloat(never.IPC(), 2)}
		for _, ref := range c.pols {
			res := engine.Get[multiscalar.Result](b, ref)
			row = append(row, stats.FormatSpeedup(res.SpeedupOver(never)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure6MechanismSpeedup reproduces Figure 6: the speedup (%) of the
// proposed mechanism (SYNC and ESYNC predictors) and of perfect
// synchronization (PSYNC) over blind speculation (ALWAYS), for 4- and 8-stage
// configurations on the SPECint92 benchmarks.
func (r *Runner) Figure6MechanismSpeedup(ctx context.Context) (*stats.Table, error) {
	compared := []policy.Kind{policy.Sync, policy.ESync, policy.PerfectSync}

	b := r.eng.NewBatch()
	type cell struct {
		stages int
		name   string
		always engine.Ref
		pols   []engine.Ref
	}
	var cells []cell
	for _, stages := range stageCounts {
		for _, name := range workload.SPECint92Names() {
			c := cell{stages: stages, name: name, always: b.Add(r.simSpec(name, stages, policy.Always))}
			for _, pol := range compared {
				c.pols = append(c.pols, b.Add(r.simSpec(name, stages, pol)))
			}
			cells = append(cells, c)
		}
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	t := stats.NewTable("Figure 6: mechanism speedup (%) over blind speculation (ALWAYS)",
		"stages", "benchmark", "ALWAYS IPC", "SYNC", "ESYNC", "PSYNC")
	for _, c := range cells {
		always := engine.Get[multiscalar.Result](b, c.always)
		row := []string{fmt.Sprint(c.stages), c.name, stats.FormatFloat(always.IPC(), 2)}
		for _, ref := range c.pols {
			res := engine.Get[multiscalar.Result](b, ref)
			row = append(row, stats.FormatSpeedup(res.SpeedupOver(always)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure7Spec95 reproduces Figure 7: for the SPEC95 programs on an 8-stage
// Multiscalar processor, the IPC obtained with the ESYNC mechanism and the
// speedups of ESYNC and PSYNC over blind speculation.
func (r *Runner) Figure7Spec95(ctx context.Context) (*stats.Table, error) {
	const stages = 8

	b := r.eng.NewBatch()
	type cell struct {
		name                 string
		always, esync, psync engine.Ref
	}
	var cells []cell
	for _, name := range workload.SPEC95Names() {
		cells = append(cells, cell{
			name:   name,
			always: b.Add(r.simSpec(name, stages, policy.Always)),
			esync:  b.Add(r.simSpec(name, stages, policy.ESync)),
			psync:  b.Add(r.simSpec(name, stages, policy.PerfectSync)),
		})
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	t := stats.NewTable("Figure 7: SPEC95, 8-stage Multiscalar, speedup (%) over ALWAYS",
		"benchmark", "suite", "ESYNC IPC", "ESYNC", "PSYNC")
	for _, c := range cells {
		always := engine.Get[multiscalar.Result](b, c.always)
		esync := engine.Get[multiscalar.Result](b, c.esync)
		psync := engine.Get[multiscalar.Result](b, c.psync)
		wl := workload.MustGet(c.name)
		t.AddRow(c.name, wl.Suite.String(),
			stats.FormatFloat(esync.IPC(), 2),
			stats.FormatSpeedup(esync.SpeedupOver(always)),
			stats.FormatSpeedup(psync.SpeedupOver(always)))
	}
	return t, nil
}
