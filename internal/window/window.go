// Package window implements the "unrealistic" out-of-order execution model of
// section 5 of the paper: a processor able to establish a perfect, continuous
// instruction window of a given size, in which every load is mis-speculated
// whenever a store it depends on appears fewer than n instructions earlier in
// the sequential order.  The model is the worst case with respect to the
// number of mis-speculations and is used to characterise the dynamic
// behaviour of memory dependences (Tables 3, 4 and 5).
//
// The analysis runs no program: it reads the committed stream of a
// preprocessed multiscalar.WorkItem, which already records each load's most
// recent same-address store, so one functional pass per workload serves both
// this model and the timing simulator.
package window

import (
	"slices"
	"sort"

	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
)

// DefaultWindowSizes are the window sizes of Tables 3-5.
func DefaultWindowSizes() []int { return []int{8, 16, 32, 64, 128, 256, 512} }

// DefaultDDCSizes are the data dependence cache sizes of Table 5.
func DefaultDDCSizes() []int { return []int{32, 128, 512} }

// Coverage is the fraction of dynamic mis-speculations that Table 4 requires
// the counted static dependences to cover (99.9%).
const Coverage = 0.999

// Result holds the dependence statistics observed for one window size.
type Result struct {
	// WindowSize is the instruction window size n.
	WindowSize int
	// Loads is the number of committed loads in the analysed stream.
	Loads uint64
	// Misspeculations is the number of loads whose producing store lies
	// within the window (every such load is counted as mis-speculated under
	// the worst-case model).
	Misspeculations uint64
	// StaticPairs is the number of distinct static store→load pairs that
	// produced at least one mis-speculation.
	StaticPairs int
	// PairsForCoverage is the number of static pairs, taken in decreasing
	// order of frequency, needed to cover Coverage (99.9%) of all
	// mis-speculations (Table 4).
	PairsForCoverage int
	// DDCMissRate maps DDC size to the percentage of mis-speculations whose
	// pair was not found in a DDC of that size (Table 5), in [0,100].
	DDCMissRate map[int]float64
	// PairCounts holds the per-pair mis-speculation counts (for further
	// analysis and tests).
	PairCounts map[memdep.PairKey]uint64
}

// MisspecRate returns mis-speculations per committed load.
func (r Result) MisspecRate() float64 {
	if r.Loads == 0 {
		return 0
	}
	return float64(r.Misspeculations) / float64(r.Loads)
}

// Config selects the window and DDC sizes of an analysis.
type Config struct {
	// WindowSizes lists the window sizes to evaluate (default
	// DefaultWindowSizes).
	WindowSizes []int
	// DDCSizes lists the data dependence cache sizes to evaluate per window
	// (default DefaultDDCSizes).
	DDCSizes []int
}

func (c Config) withDefaults() Config {
	if len(c.WindowSizes) == 0 {
		c.WindowSizes = DefaultWindowSizes()
	}
	if len(c.DDCSizes) == 0 {
		c.DDCSizes = DefaultDDCSizes()
	}
	return c
}

// Analyze returns the dependence statistics of the work item's committed
// stream, one Result per configured window size in increasing order.  A load
// counts at window size n when the most recent store to its address, which
// the work item records as the load's producer, lies fewer than n
// instructions before it.
func Analyze(w *multiscalar.WorkItem, cfg Config) []Result {
	cfg = cfg.withDefaults()
	out := make([]Result, len(cfg.WindowSizes))
	ddcs := make([][]*memdep.DDC, len(out)) // per window
	for i, ws := range slices.Sorted(slices.Values(cfg.WindowSizes)) {
		out[i] = Result{WindowSize: ws, Loads: w.Loads, PairCounts: make(map[memdep.PairKey]uint64)}
		for _, ds := range cfg.DDCSizes {
			ddcs[i] = append(ddcs[i], memdep.NewDDC(ds))
		}
	}
	for pair, dist := range w.Dependences() {
		for i := range out {
			if r := &out[i]; dist < r.WindowSize {
				r.Misspeculations++
				r.PairCounts[pair]++
				for _, ddc := range ddcs[i] {
					ddc.Access(pair)
				}
			}
		}
	}
	for i := range out {
		r := &out[i]
		r.StaticPairs = len(r.PairCounts)
		r.PairsForCoverage = pairsForCoverage(r.PairCounts, r.Misspeculations, Coverage)
		r.DDCMissRate = make(map[int]float64, len(ddcs[i]))
		for _, ddc := range ddcs[i] {
			r.DDCMissRate[ddc.Capacity()] = ddc.MissRate() * 100
		}
	}
	return out
}

// pairsForCoverage returns how many static pairs, in decreasing frequency
// order, are needed to account for the given fraction of all mis-speculations.
func pairsForCoverage(pairs map[memdep.PairKey]uint64, total uint64, coverage float64) int {
	if total == 0 {
		return 0
	}
	counts := make([]uint64, 0, len(pairs))
	for _, c := range pairs {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	need := uint64(float64(total) * coverage)
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= need {
			return i + 1
		}
	}
	return len(counts)
}
