// Windowstudy reproduces the dependence-behaviour characterisation of
// section 5.3 of the paper (Tables 3-5) for one or more benchmarks through
// the public facade (memdep/sim): how the number of worst-case
// mis-speculations grows with the instruction window, how few static
// store→load pairs account for them, and how well small data dependence
// caches capture those pairs.
//
// With several -bench values (comma-separated) the analyses are one
// WindowGrid call: they run in parallel on the -jobs worker pool and are
// memoized.  Each reads its benchmark's preprocessed work item, so
// repeating a benchmark costs one functional run, shared with any timing
// simulation of the same benchmark and instruction bound.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"memdep/sim"
)

func main() {
	bench := flag.String("bench", "compress", "benchmark(s) to analyse, comma-separated")
	maxInstr := flag.Uint64("max-instructions", 300_000, "cap on committed instructions")
	jobs := flag.Int("jobs", 0, "session worker-pool size (0 = GOMAXPROCS)")
	flag.Parse()

	var names []string
	for _, n := range strings.Split(*bench, ",") {
		names = append(names, strings.TrimSpace(n))
	}

	session := sim.NewSession(sim.WithWorkers(*jobs))

	// Declare every benchmark's analysis up front; the grid fans out over
	// the worker pool.
	reqs := make([]sim.WindowRequest, len(names))
	for i, name := range names {
		reqs[i] = sim.WindowRequest{
			Bench:           name,
			MaxInstructions: *maxInstr,
			WindowSizes:     sim.DefaultWindowSizes(),
			DDCSizes:        sim.DefaultDDCSizes(),
		}
	}
	grids, err := session.WindowGrid(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}

	for i, name := range names {
		results := grids[i]
		table := sim.NewTable(
			fmt.Sprintf("Unrealistic OOO model: memory dependence behaviour of %s", name),
			"window", "misspecs", "misspec/load", "static pairs", "pairs for 99.9%",
			"DDC-32 miss%", "DDC-128 miss%", "DDC-512 miss%")
		for _, r := range results {
			table.AddRow(
				fmt.Sprint(r.WindowSize),
				fmt.Sprint(r.Misspeculations),
				fmt.Sprintf("%.4f", r.MisspecsPerLoad),
				fmt.Sprint(r.StaticPairs),
				fmt.Sprint(r.PairsForCoverage),
				fmt.Sprintf("%.2f", r.DDCMissRate[32]),
				fmt.Sprintf("%.2f", r.DDCMissRate[128]),
				fmt.Sprintf("%.2f", r.DDCMissRate[512]),
			)
		}
		fmt.Print(table.Render())
		fmt.Println()
	}
	fmt.Println("Observations to compare against the paper:")
	fmt.Println("  * mis-speculations grow sharply as the window widens (Table 3);")
	fmt.Println("  * a handful of static pairs covers 99.9% of them (Table 4);")
	fmt.Println("  * moderate DDCs capture most of those pairs (Table 5).")
}
