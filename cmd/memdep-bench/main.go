// Command memdep-bench regenerates the tables and figures of the paper's
// evaluation on the synthetic workload suite.  It is a thin client of the
// public facade (memdep/sim): every experiment runs through one sim.Session,
// so the tables share workloads, traces and timing results via the session
// cache, exactly like concurrent /v1/grid requests against memdep-server.
//
// Usage:
//
//	memdep-bench                     # run every experiment at full scale
//	memdep-bench -quick              # truncated runs (fast sanity check)
//	memdep-bench -experiment table3  # run a single experiment (see -list)
//	memdep-bench -list               # list experiment identifiers
//	memdep-bench -csv                # emit CSV instead of aligned text
//	memdep-bench -jobs 16            # size of the parallel worker pool
//	memdep-bench -md EXPERIMENTS.md  # regenerate the markdown results file
//
// The -synth flag family rebases the sensitivity-synth experiment on a
// custom generated workload:
//
//	memdep-bench -experiment sensitivity-synth -synth-seed 9 -synth-ops 100000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"memdep/cmd/internal/storeflag"
	"memdep/cmd/internal/synthflag"
	"memdep/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memdep-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id to run (see -list), or \"all\"")
		list       = fs.Bool("list", false, "list available experiments and exit")
		quick      = fs.Bool("quick", false, "run truncated workloads (fast)")
		scale      = fs.Int("scale", 0, "override workload scale (0 = per-benchmark default)")
		maxInstr   = fs.Uint64("max-instructions", 0, "cap committed instructions per benchmark (0 = unlimited)")
		entries    = fs.Int("mdpt-entries", 64, "MDPT entries")
		predName   = fs.String("predictor", "full", "MDPT organization for the standard grids: \"full\", \"setassoc\" or \"storeset\"")
		ways       = fs.Int("mdpt-ways", 0, "associativity for the setassoc/storeset organizations (0 = default 4)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jobs       = fs.Int("jobs", 0, "session worker-pool size (0 = GOMAXPROCS)")
		md         = fs.String("md", "", "write the results as markdown to this file (e.g. EXPERIMENTS.md)")
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
		for _, e := range sim.Experiments() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Description)
		}
		return 0
	}

	synthSpec, err := synth.Spec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	opts := sim.SuiteOptions{
		Quick:           *quick,
		Scale:           *scale,
		MaxInstructions: *maxInstr,
		MDPTEntries:     *entries,
		Predictor:       sim.TableKind(*predName),
		MDPTWays:        *ways,
		Synth:           synthSpec,
	}
	session := sim.NewSession(append([]sim.Option{sim.WithWorkers(*jobs)}, storeFlags.Options()...)...)

	var selected []sim.Experiment
	if *experiment == "all" {
		selected = sim.Experiments()
	} else {
		e, err := sim.LookupExperiment(*experiment)
		if err != nil {
			fmt.Fprintln(stderr, err)
			fmt.Fprintln(stderr, "use -list to see the available experiments")
			return 1
		}
		selected = []sim.Experiment{e}
	}

	var mdOut *strings.Builder
	if *md != "" {
		mdOut = &strings.Builder{}
		writeMarkdownHeader(mdOut, opts)
	}

	for _, e := range selected {
		start := time.Now()
		tab, err := session.RunExperiment(context.Background(), e.ID, opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		switch {
		case mdOut != nil:
			writeMarkdownTable(mdOut, e, tab)
			fmt.Fprintf(stderr, "[%s completed in %.2fs]\n", e.ID, time.Since(start).Seconds())
		case *csv:
			fmt.Fprintf(stdout, "# %s\n%s\n", e.ID, tab.CSV())
		default:
			fmt.Fprintln(stdout, tab.Render())
			fmt.Fprintf(stdout, "[%s completed in %.2fs]\n\n", e.ID, time.Since(start).Seconds())
		}
	}

	st := session.Stats()
	fmt.Fprintf(stderr, "[engine: %d workers, %d jobs executed, %d cache hits]\n",
		st.Workers, st.Executed, st.Hits)
	storeflag.PrintStats(stderr, st)

	if mdOut != nil {
		if err := os.WriteFile(*md, []byte(mdOut.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "[wrote %s]\n", *md)
	}
	return 0
}

// writeMarkdownHeader emits the preamble of EXPERIMENTS.md.  The run bounds
// report the effective options (quick preset materialized, table geometry
// clamped), not the raw flags.
func writeMarkdownHeader(b *strings.Builder, opts sim.SuiteOptions) {
	opts = opts.Effective()
	b.WriteString("# EXPERIMENTS\n\n")
	b.WriteString("Tables and figures of \"Dynamic Speculation and Synchronization of Data\n")
	b.WriteString("Dependences\" (Moshovos, Breach, Vijaykumar, Sohi; ISCA 1997), regenerated\n")
	b.WriteString("on the synthetic workload suite by `cmd/memdep-bench`.\n\n")
	if opts.Quick {
		b.WriteString("> Generated with `-quick` (truncated runs); regenerate at full scale with\n")
		b.WriteString("> `go run ./cmd/memdep-bench -md EXPERIMENTS.md`.\n\n")
	} else {
		b.WriteString("Generated with `go run ./cmd/memdep-bench -md EXPERIMENTS.md`.\n\n")
	}
	var bounds []string
	if opts.Scale > 0 {
		bounds = append(bounds, fmt.Sprintf("scale override %d", opts.Scale))
	}
	if opts.MaxInstructions > 0 {
		bounds = append(bounds, fmt.Sprintf("%d committed instructions per benchmark", opts.MaxInstructions))
	}
	if opts.Predictor != sim.TableFullAssoc {
		// Normalize applies the same geometry rules as the predictor, so the
		// reported ways are the clamped values the tables ran with.
		eff := sim.Request{MDPTEntries: opts.MDPTEntries, Predictor: opts.Predictor, MDPTWays: opts.MDPTWays}.Normalize()
		bounds = append(bounds, fmt.Sprintf("%s predictor organization (%d ways)", eff.Predictor, eff.MDPTWays))
	}
	if opts.Synth != nil {
		bounds = append(bounds, fmt.Sprintf("sensitivity-synth base spec %s", opts.Synth.CanonicalJSON()))
	}
	if len(bounds) > 0 {
		fmt.Fprintf(b, "Run bounds: %s.\n\n", strings.Join(bounds, ", "))
	}
}

// writeMarkdownTable emits one experiment as a fenced block (the aligned text
// rendering is already tabular; fencing keeps it intact in markdown).
func writeMarkdownTable(b *strings.Builder, e sim.Experiment, tab *sim.Table) {
	fmt.Fprintf(b, "## %s — %s\n\n", e.ID, e.Description)
	b.WriteString("```\n")
	b.WriteString(tab.Render())
	b.WriteString("```\n\n")
}
