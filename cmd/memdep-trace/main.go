// Command memdep-trace inspects the synthetic workloads through the public
// facade (memdep/sim): it can disassemble a benchmark, summarise its
// committed instruction stream, report its dynamic task structure, and
// profile its memory dependences under the unrealistic OOO window model of
// the paper's section 5.3.
//
// Usage:
//
//	memdep-trace -bench compress -mode summary
//	memdep-trace -bench espresso -mode disasm | head -50
//	memdep-trace -bench sc -mode deps -window 64
//	memdep-trace -bench xlisp -mode tasks
//	memdep-trace -synth -synth-seed 7 -mode summary   # generated workload
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"memdep/cmd/internal/storeflag"
	"memdep/cmd/internal/synthflag"
	"memdep/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memdep-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "compress", "benchmark name")
		mode     = fs.String("mode", "summary", "one of: summary, disasm, deps, tasks")
		scale    = fs.Int("scale", 0, "workload scale (0 = benchmark default)")
		maxInstr = fs.Uint64("max-instructions", 0, "cap committed instructions (0 = unlimited)")
		ws       = fs.Int("window", 64, "window size for -mode deps")
		top      = fs.Int("top", 10, "number of hottest dependences to print for -mode deps")
		jobs     = fs.Int("jobs", 0, "session worker-pool size (0 = GOMAXPROCS)")
	)
	synth := synthflag.Register(fs)
	storeFlags := storeflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	benchName, synthSpec, err := synth.ResolveBench(*bench)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// All inspection modes resolve their inputs through one session: the
	// tasks and deps modes read the workload's preprocessed work item, and
	// with -store a shell loop over modes shares it through the store.
	session := sim.NewSession(append([]sim.Option{sim.WithWorkers(*jobs)}, storeFlags.Options()...)...)
	ctx := context.Background()
	treq := sim.TraceRequest{Bench: benchName, Synth: synthSpec, Scale: *scale, MaxInstructions: *maxInstr}

	switch *mode {
	case "disasm":
		asm, err := session.Disassemble(ctx, treq)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, asm)

	case "summary":
		sum, err := session.Trace(ctx, treq)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "benchmark     %s (%s)\n", sum.Bench, sum.Suite)
		fmt.Fprintf(stdout, "description   %s\n", sum.Description)
		fmt.Fprintf(stdout, "static size   %d instructions, %d loads, %d stores\n",
			sum.StaticInstructions, sum.StaticLoads, sum.StaticStores)
		fmt.Fprintf(stdout, "dynamic size  %d instructions (%d loads, %d stores, %d branches)\n",
			sum.Instructions, sum.Loads, sum.Stores, sum.Branches)
		fmt.Fprintf(stdout, "tasks         %d (%.1f instructions per task)\n",
			sum.Tasks, sum.AvgTaskSize())

	case "tasks":
		hist, err := session.TaskSizes(ctx, treq)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		t := sim.NewTable(fmt.Sprintf("dynamic task sizes for %s", sim.Workload{Bench: benchName, Synth: synthSpec}.Name()), "size", "tasks")
		for _, b := range hist {
			t.AddRow(b.Label, fmt.Sprint(b.Tasks))
		}
		fmt.Fprint(stdout, t.Render())

	case "deps":
		results, err := session.Window(ctx, sim.WindowRequest{
			Bench:           benchName,
			Synth:           synthSpec,
			Scale:           *scale,
			MaxInstructions: *maxInstr,
			WindowSizes:     []int{*ws},
			DDCSizes:        sim.DefaultDDCSizes(),
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		res := results[0]
		fmt.Fprintf(stdout, "window size %d: %d loads, %d worst-case mis-speculations (%.4f per load)\n",
			res.WindowSize, res.Loads, res.Misspeculations, res.MisspecsPerLoad)
		fmt.Fprintf(stdout, "static dependences: %d total, %d cover 99.9%% of mis-speculations\n",
			res.StaticPairs, res.PairsForCoverage)
		for _, cs := range sim.DefaultDDCSizes() {
			fmt.Fprintf(stdout, "DDC %4d entries: %.2f%% miss rate\n", cs, res.DDCMissRate[cs])
		}
		fmt.Fprintln(stdout, "hottest static dependences:")
		for i, pc := range res.Pairs {
			if i >= *top {
				break
			}
			fmt.Fprintf(stdout, "  %7d  store @%d (%s)  ->  load @%d (%s)\n",
				pc.Count, pc.StoreIndex, pc.Store, pc.LoadIndex, pc.Load)
		}

	default:
		fmt.Fprintf(stderr, "unknown mode %q (want summary, disasm, deps or tasks)\n", *mode)
		return 1
	}
	return 0
}
