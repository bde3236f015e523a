// Package storeflag provides the shared -store flag family of the CLIs:
// every binary that runs simulations can point a persistent,
// content-addressed result store at a directory, so repeated identical runs
// -- across invocations, processes and CI jobs -- read their simulation
// results and preprocessed work items back from disk instead of recomputing
// them.
package storeflag

import (
	"flag"
	"fmt"
	"io"

	"memdep/sim"
)

// Flags holds the registered -store flag family.
type Flags struct {
	dir string
}

// Register installs the -store flag family on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.dir, "store", "",
		"persistent result-store directory shared across runs and processes; repeated identical simulations are read back from disk instead of recomputed (\"\" = in-memory cache only)")
	return f
}

// Options returns the session options selected by the family: empty when the
// store is disabled, sim.WithStore otherwise.
func (f *Flags) Options() []sim.Option {
	if f.dir == "" {
		return nil
	}
	return []sim.Option{sim.WithStore(f.dir)}
}

// PrintStats writes the store counter line for a finished run, one
// machine-greppable key=value list, when the session has a store attached.
// CI's warm-replay assertion parses it.
func PrintStats(w io.Writer, st sim.Stats) {
	if st.Store == nil {
		return
	}
	c := st.Store.Counters
	fmt.Fprintf(w, "[store: dir=%s hits=%d misses=%d bypassed=%d corrupt=%d writes=%d write_errors=%d]\n",
		st.Store.Dir, c.Hits, c.Misses, c.Bypassed, c.Corrupt, c.Writes, c.WriteErrors)
}
