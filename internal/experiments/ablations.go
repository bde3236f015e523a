package experiments

import (
	"context"
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/stats"
	"memdep/internal/workload"
)

// AblationTagging compares the two dynamic-instance tagging schemes of
// section 3: the dependence-distance scheme (the paper's choice, evaluated
// everywhere else) and the data-address scheme, on the 8-stage configuration
// with the SYNC predictor.
func (r *Runner) AblationTagging(ctx context.Context) (*stats.Table, error) {
	const stages = 8

	b := r.eng.NewBatch()
	type cell struct {
		name       string
		dist, addr engine.Ref
	}
	var cells []cell
	for _, name := range workload.SPECint92Names() {
		cfg := r.simConfig(stages, policy.Sync)
		cfg.MemDep.TagByAddress = true
		cells = append(cells, cell{
			name: name,
			dist: b.Add(r.simSpec(name, stages, policy.Sync)),
			addr: b.Add(r.simSpecWith(name, cfg)),
		})
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation: dynamic-instance tagging scheme (8 stages, SYNC predictor)",
		"benchmark", "distance IPC", "address IPC", "distance misspec/load", "address misspec/load")
	for _, c := range cells {
		dist := engine.Get[multiscalar.Result](b, c.dist)
		addr := engine.Get[multiscalar.Result](b, c.addr)
		t.AddRow(c.name,
			stats.FormatFloat(dist.IPC(), 2),
			stats.FormatFloat(addr.IPC(), 2),
			stats.FormatFloat(dist.MisspecsPerCommittedLoad(), 4),
			stats.FormatFloat(addr.MisspecsPerCommittedLoad(), 4))
	}
	return t, nil
}

// AblationPredictor compares the prediction policies attached to MDPT entries
// (always-synchronize, SYNC counter, ESYNC counter + task PC) on the 8-stage
// configuration.
func (r *Runner) AblationPredictor(ctx context.Context) (*stats.Table, error) {
	const stages = 8

	b := r.eng.NewBatch()
	type cell struct {
		name                           string
		alwaysSync, sync, esync, psync engine.Ref
	}
	var cells []cell
	for _, name := range workload.SPECint92Names() {
		cfg := r.simConfig(stages, policy.Sync)
		cfg.MemDep.Predictor = memdep.PredictAlways
		cells = append(cells, cell{
			name:       name,
			alwaysSync: b.Add(r.simSpecWith(name, cfg)),
			sync:       b.Add(r.simSpec(name, stages, policy.Sync)),
			esync:      b.Add(r.simSpec(name, stages, policy.ESync)),
			psync:      b.Add(r.simSpec(name, stages, policy.PerfectSync)),
		})
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation: MDPT prediction policy (8 stages)",
		"benchmark", "ALWAYS-SYNC IPC", "SYNC IPC", "ESYNC IPC", "PSYNC IPC")
	for _, c := range cells {
		t.AddRow(c.name,
			stats.FormatFloat(engine.Get[multiscalar.Result](b, c.alwaysSync).IPC(), 2),
			stats.FormatFloat(engine.Get[multiscalar.Result](b, c.sync).IPC(), 2),
			stats.FormatFloat(engine.Get[multiscalar.Result](b, c.esync).IPC(), 2),
			stats.FormatFloat(engine.Get[multiscalar.Result](b, c.psync).IPC(), 2))
	}
	t.Note = "ALWAYS-SYNC omits the prediction counter: any matching MDPT entry forces synchronization."
	return t, nil
}

// ablationTableSizes are the MDPT sizes swept by AblationTableSize.
func ablationTableSizes() []int { return []int{16, 32, 64, 128, 256} }

// AblationTableSize sweeps the MDPT size (the paper evaluates 64 entries and
// discusses capacity problems for 103.su2cor and 145.fpppp).
func (r *Runner) AblationTableSize(ctx context.Context) (*stats.Table, error) {
	const stages = 8
	benchmarks := append(append([]string{}, workload.SPECint92Names()...),
		"103.su2cor", "145.fpppp")

	b := r.eng.NewBatch()
	type cell struct {
		name string
		refs []engine.Ref
	}
	var cells []cell
	for _, name := range benchmarks {
		c := cell{name: name}
		for _, entries := range ablationTableSizes() {
			cfg := r.simConfig(stages, policy.ESync)
			cfg.MemDep.Entries = entries
			c.refs = append(c.refs, b.Add(r.simSpecWith(name, cfg)))
		}
		cells = append(cells, c)
	}
	if err := b.Run(ctx); err != nil {
		return nil, err
	}

	cols := []string{"benchmark"}
	for _, n := range ablationTableSizes() {
		cols = append(cols, fmt.Sprintf("%d entries", n))
	}
	t := stats.NewTable("Ablation: MDPT size, ESYNC IPC (8 stages)", cols...)
	for _, c := range cells {
		row := []string{c.name}
		for _, ref := range c.refs {
			row = append(row, stats.FormatFloat(engine.Get[multiscalar.Result](b, ref).IPC(), 2))
		}
		t.AddRow(row...)
	}
	t.Note = "103.su2cor and 145.fpppp carry dependence working sets larger than small tables (section 5.5)."
	return t, nil
}

// NamedExperiment couples an experiment identifier with its driver.
type NamedExperiment struct {
	// ID is the table/figure identifier used by the paper (for example
	// "table3" or "figure6").
	ID string
	// Description summarises what the experiment reports.
	Description string
	// Run produces the table.
	Run func(*Runner, context.Context) (*stats.Table, error)
}

// All returns every experiment in presentation order.
func All() []NamedExperiment {
	return []NamedExperiment{
		{"table1", "committed dynamic instruction counts", (*Runner).Table1DynamicCounts},
		{"table3", "unrealistic OOO: mis-speculations vs window size", (*Runner).Table3WindowMisspec},
		{"table4", "static dependences covering 99.9% of mis-speculations", (*Runner).Table4StaticCoverage},
		{"table5", "unrealistic OOO: DDC miss rates", (*Runner).Table5DDCMissRate},
		{"table6", "Multiscalar: mis-speculations under blind speculation", (*Runner).Table6MultiscalarMisspec},
		{"table7", "8-stage Multiscalar: DDC miss rates", (*Runner).Table7MultiscalarDDC},
		{"figure5", "speculation policies vs NEVER", (*Runner).Figure5PolicyComparison},
		{"table8", "dependence prediction breakdown", (*Runner).Table8PredictionBreakdown},
		{"table9", "mis-speculations per committed load", (*Runner).Table9MisspecPerLoad},
		{"figure6", "mechanism speedup over blind speculation", (*Runner).Figure6MechanismSpeedup},
		{"figure7", "SPEC95 speedups on 8 stages", (*Runner).Figure7Spec95},
		{"ablation-tagging", "instance tagging: distance vs address", (*Runner).AblationTagging},
		{"ablation-predictor", "prediction policy: always/SYNC/ESYNC", (*Runner).AblationPredictor},
		{"ablation-tablesize", "MDPT size sweep", (*Runner).AblationTableSize},
		{"sensitivity-predictor", "predictor organization: entries × ways × counter bits", (*Runner).SensitivityPredictorOrg},
		{"sensitivity-synth", "synthetic workloads: dependence distance × alias intensity", (*Runner).SensitivitySynth},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (NamedExperiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return NamedExperiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll runs the experiments side by side, each driver on its own
// goroutine over r, and hands yield each table in the order of exps as soon
// as it and every table before it are done.  The engine's pool bounds how
// many of the drivers' jobs execute at once.  The error reported is the
// first in the order of exps, prefixed with its experiment's ID; once it is
// found, the drivers still running are cancelled, and RunAll returns when
// every driver has stopped.
func (r *Runner) RunAll(ctx context.Context, exps []NamedExperiment, yield func(NamedExperiment, *stats.Table)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		tab *stats.Table
		err error
	}
	done := make([]chan outcome, len(exps))
	for i, e := range exps {
		done[i] = make(chan outcome, 1)
		go func() {
			tab, err := e.Run(r, ctx)
			done[i] <- outcome{tab, err}
		}()
	}
	for i, e := range exps {
		o := <-done[i]
		if o.err != nil {
			cancel()
			for _, d := range done[i+1:] {
				<-d
			}
			return fmt.Errorf("%s: %w", e.ID, o.err)
		}
		yield(e, o.tab)
	}
	return nil
}
