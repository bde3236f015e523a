package storeflag

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"

	"memdep/sim"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDisabledByDefault(t *testing.T) {
	f := parse(t)
	if f.dir != "" || len(f.Options()) != 0 {
		t.Fatalf("dir=%q options=%d, want disabled", f.dir, len(f.Options()))
	}
}

func TestOptionsEnableTheStore(t *testing.T) {
	dir := t.TempDir()
	f := parse(t, "-store", dir)
	if f.dir != dir {
		t.Fatalf("dir = %q", f.dir)
	}
	opts := f.Options()
	if len(opts) != 1 {
		t.Fatalf("options = %d, want 1", len(opts))
	}
	s := sim.NewSession(opts...)
	if _, err := s.Run(context.Background(), sim.Request{Synth: &sim.SynthSpec{Seed: 2, Ops: 2048}}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Store == nil || st.Store.Dir != dir {
		t.Fatalf("stats store = %+v, want dir %q", st.Store, dir)
	}
}

func TestPrintStats(t *testing.T) {
	var b strings.Builder
	PrintStats(&b, sim.Stats{}) // no store: silent
	if b.Len() != 0 {
		t.Fatalf("output without a store: %q", b.String())
	}
	st := sim.Stats{Store: &sim.StoreStats{
		Dir:      "/tmp/cache",
		Counters: sim.StoreCounters{Hits: 3, Misses: 2, Writes: 2},
	}}
	PrintStats(&b, st)
	got := b.String()
	want := "[store: dir=/tmp/cache hits=3 misses=2 bypassed=0 corrupt=0 writes=2 write_errors=0]\n"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}
