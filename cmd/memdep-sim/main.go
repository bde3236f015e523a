// Command memdep-sim runs one benchmark on one or more Multiscalar
// configurations and prints the timing and dependence statistics.  It is a
// thin client of the public facade (memdep/sim): flags map one-to-one onto
// sim.Request fields, and a stage × policy grid becomes a single
// sim.Session.RunGrid call that fans out over the -jobs worker pool with the
// preprocessed work item shared by every simulation.
//
// Usage:
//
//	memdep-sim -bench compress -stages 8 -policy ESYNC
//	memdep-sim -bench 101.tomcatv -policy ALWAYS -max-instructions 200000
//	memdep-sim -bench compress -stages 4,8 -policy ALWAYS,ESYNC  # grid, in parallel
//	memdep-sim -synth -synth-seed 7 -synth-alias 4 -policy ESYNC # generated workload
//	memdep-sim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memdep/cmd/internal/storeflag"
	"memdep/cmd/internal/synthflag"
	"memdep/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memdep-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "compress", "benchmark name (see -list)")
		list     = fs.Bool("list", false, "list the benchmarks of the synthetic suite and exit")
		stages   = fs.String("stages", "8", "number of processing units; a comma-separated list runs the whole grid")
		polName  = fs.String("policy", "ESYNC", "speculation policy (NEVER, ALWAYS, WAIT, PSYNC a.k.a. PERFECT-SYNC, SYNC, ESYNC; case-insensitive); a comma-separated list runs the whole grid")
		scale    = fs.Int("scale", 0, "workload scale (0 = benchmark default)")
		maxInstr = fs.Uint64("max-instructions", 0, "cap committed instructions (0 = unlimited)")
		entries  = fs.Int("mdpt-entries", 64, "MDPT entries")
		predName = fs.String("predictor", "full", "MDPT organization: \"full\" (fully associative), \"setassoc\" (set-associative, load-PC-indexed) or \"storeset\"")
		ways     = fs.Int("mdpt-ways", 0, "associativity for the setassoc/storeset organizations (0 = default 4)")
		topPairs = fs.Int("top-pairs", 5, "print the N most frequently mis-speculated static pairs")
		jobs     = fs.Int("jobs", 0, "session worker-pool size for grid runs (0 = GOMAXPROCS)")
	)
	synth := synthflag.Register(fs)
	storeFlags := storeflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, b := range sim.Benchmarks() {
			fmt.Fprintf(stdout, "%-14s (%s, default scale %d)\n", b.Name, b.Suite, b.DefaultScale)
		}
		return 0
	}

	stageList, err := parseStages(*stages)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A synthetic spec replaces the named benchmark for every grid cell.
	benchName, synthSpec, err := synth.ResolveBench(*bench)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var pols []sim.Policy
	for _, p := range strings.Split(*polName, ",") {
		pols = append(pols, sim.Policy(strings.TrimSpace(p)))
	}

	// Declare the stage × policy grid as one facade call.
	var reqs []sim.Request
	for _, st := range stageList {
		for _, pol := range pols {
			reqs = append(reqs, sim.Request{
				Bench:           benchName,
				Synth:           synthSpec,
				Stages:          st,
				Policy:          pol,
				Scale:           *scale,
				MaxInstructions: *maxInstr,
				MDPTEntries:     *entries,
				Predictor:       sim.TableKind(*predName),
				MDPTWays:        *ways,
			})
		}
	}
	session := sim.NewSession(append([]sim.Option{sim.WithWorkers(*jobs)}, storeFlags.Options()...)...)
	results, err := session.RunGrid(context.Background(), reqs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printResult(stdout, res, *topPairs)
	}
	st := session.Stats()
	if len(results) > 1 {
		fmt.Fprintf(stdout, "\n[engine: %d workers, %d jobs executed, %d cache hits]\n",
			st.Workers, st.Executed, st.Hits)
	}
	storeflag.PrintStats(stderr, st)
	return 0
}

func parseStages(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			// Explicitly rejected rather than defaulted: the facade's
			// zero-value default (8) differs from the old internal one (4),
			// so a silent fallback would quietly simulate another machine.
			return nil, fmt.Errorf("invalid -stages value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func printResult(w io.Writer, res *sim.Result, topPairs int) {
	req := res.Request
	fmt.Fprintf(w, "benchmark        %s (scale %d)\n", req.WorkloadName(), req.Scale)
	cfgLine := fmt.Sprintf("%d stages, policy %v, %d MDPT entries", req.Stages, req.Policy, req.MDPTEntries)
	if req.Predictor != sim.TableFullAssoc {
		// The request echoes the effective geometry (defaults applied, ways
		// clamped), not the raw flag values.
		cfgLine += fmt.Sprintf(", %s organization (%d ways)", req.Predictor, req.MDPTWays)
	}
	fmt.Fprintf(w, "configuration    %s\n", cfgLine)
	fmt.Fprintf(w, "instructions     %d (%d loads, %d stores, %d tasks, %.1f instr/task)\n",
		res.Instructions, res.Loads, res.Stores, res.Tasks, res.AvgTaskSize)
	fmt.Fprintf(w, "cycles           %d\n", res.Cycles)
	fmt.Fprintf(w, "IPC              %.3f\n", res.IPC)
	fmt.Fprintf(w, "mis-speculations %d (%.4f per committed load)\n",
		res.Misspeculations, res.MisspecsPerLoad)
	fmt.Fprintf(w, "squashes         %d (%d instructions of work discarded)\n",
		res.Squashes, res.SquashedInstructions)
	fmt.Fprintf(w, "loads delayed    %d (%d cycles total, %d released without a signal)\n",
		res.LoadsWaited, res.WaitCycles, res.FalseDependenceReleases)
	if res.UsesPredictor() {
		fmt.Fprintf(w, "prediction breakdown (P/A %% of loads): N/N %.2f  N/Y %.2f  Y/N %.2f  Y/Y %.2f\n",
			res.Breakdown.Percent(0, 0), res.Breakdown.Percent(0, 1),
			res.Breakdown.Percent(1, 0), res.Breakdown.Percent(1, 1))
		fmt.Fprintf(w, "MDPT/MDST        %d mis-speculations learned, %d loads made to wait, %d released by stores\n",
			res.MemDep.Misspeculations, res.MemDep.LoadsMadeToWait, res.MemDep.LoadsReleasedByStore)
	}
	fmt.Fprintf(w, "memory           %d data accesses (%d misses), %d instruction misses, %d bus transfers\n",
		res.Cache.DataAccesses, res.Cache.DataMisses, res.Cache.InstrMisses, res.Cache.BusTransfers)
	fmt.Fprintf(w, "ARB              %d loads, %d stores, %d violations, %d bypasses (bank overflow)\n",
		res.ARB.Loads, res.ARB.Stores, res.ARB.Violations, res.ARBBypasses)
	fmt.Fprintf(w, "sequencer        %d dispatches, %d mispredictions (%.1f%% accuracy)\n",
		res.Sequencer.TaskDispatches, res.Sequencer.Mispredictions, res.Sequencer.PredictorAcc*100)

	if topPairs > 0 && len(res.MisspecPairs) > 0 {
		fmt.Fprintf(w, "hottest mis-speculated static pairs:\n")
		for i, pc := range res.MisspecPairs {
			if i >= topPairs {
				break
			}
			fmt.Fprintf(w, "  %6d  store @%d (%s)  ->  load @%d (%s)\n",
				pc.Count, pc.StoreIndex, pc.Store, pc.LoadIndex, pc.Load)
		}
	}
}
