package fleet

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`{"bench":"compress","stages":%d}`, i)
	}
	return out
}

// routedRegistry registers the named workers, in order, on a fresh registry.
func routedRegistry(t *testing.T, names ...string) *Registry {
	t.Helper()
	reg, _, _ := newTestRegistry(t)
	for _, name := range names {
		if err := reg.Register(name, "http://"+name+":1"); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// owner returns the worker a key routes to on a first attempt.
func owner(t *testing.T, reg *Registry, key string) string {
	t.Helper()
	w, err := reg.Route(key, nil)
	if err != nil {
		t.Fatalf("route(%q): %v", key, err)
	}
	return w.Name
}

// failoverOrder walks the key's failover order to its end: it returns the
// workers visited and the error that ended the walk.
func failoverOrder(reg *Registry, key string) ([]string, error) {
	var order []string
	tried := map[string]bool{}
	for {
		w, err := reg.Route(key, tried)
		if err != nil {
			return order, err
		}
		order = append(order, w.Name)
		tried[w.Name] = true
	}
}

func TestRouteIndependentOfRegistrationOrder(t *testing.T) {
	a := routedRegistry(t, "w1", "w2", "w3", "w4")
	b := routedRegistry(t, "w4", "w2", "w1", "w3")
	for _, k := range keys(500) {
		ao, _ := failoverOrder(a, k)
		bo, _ := failoverOrder(b, k)
		if fmt.Sprint(ao) != fmt.Sprint(bo) {
			t.Fatalf("failover order of %q depends on registration order: %v vs %v", k, ao, bo)
		}
	}
}

func TestRouteMovesOnlyTheKeysThatMust(t *testing.T) {
	names := []string{"w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w10"}
	reg := routedRegistry(t, names...)
	ks := keys(2000)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i] = owner(t, reg, k)
	}

	// A leave moves the leaver's keys and no other.
	reg.Deregister("w10")
	moved := 0
	for i, k := range ks {
		now := owner(t, reg, k)
		switch {
		case before[i] == "w10":
			moved++
		case now != before[i]:
			t.Fatalf("key %q moved from surviving %q to %q", k, before[i], now)
		}
		before[i] = now
	}
	// The leaver held about a tenth of the key space.
	if moved < len(ks)/20 || moved > len(ks)/5 {
		t.Fatalf("departed worker owned %d/%d keys, want about 1/10", moved, len(ks))
	}

	// A join takes keys for the joiner, and no other key moves.
	reg.Register("w11", "http://w11:1")
	taken := 0
	for i, k := range ks {
		switch now := owner(t, reg, k); now {
		case "w11":
			taken++
		case before[i]:
		default:
			t.Fatalf("key %q moved from %q to %q, not to the joining worker", k, before[i], now)
		}
	}
	if taken < len(ks)/20 || taken > len(ks)/5 {
		t.Fatalf("joining worker took %d/%d keys, want about 1/10", taken, len(ks))
	}
}

func TestRouteFailoverVisitsEachHealthyWorkerOnce(t *testing.T) {
	reg := routedRegistry(t, "w1", "w2", "w3", "w4", "w5")
	reg.ReportFailure("w3")
	for _, k := range keys(200) {
		// The walk is the healthy workers in descending weight, then
		// ErrNoWorkers.
		order, err := failoverOrder(reg, k)
		want := []string{"w1", "w2", "w4", "w5"}
		h := hashString(k)
		sort.Slice(want, func(i, j int) bool { return mix64(h^hashString(want[i])) > mix64(h^hashString(want[j])) })
		if fmt.Sprint(order) != fmt.Sprint(want) || !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("failover of %q = %v then %v, want %v then ErrNoWorkers", k, order, err, want)
		}
	}
}

// TestRouteBalancesTwoWorkers holds the benchmark fleet's two workers to an
// even split of the key space.
func TestRouteBalancesTwoWorkers(t *testing.T) {
	reg := routedRegistry(t, "w1", "w2")
	const n = 100_000
	counts := map[string]int{}
	for _, k := range keys(n) {
		counts[owner(t, reg, k)]++
	}
	for _, name := range []string{"w1", "w2"} {
		if share := float64(counts[name]) / n; share < 0.49 || share > 0.51 {
			t.Errorf("%s owns %.2f%% of %d keys, want 49-51%%", name, 100*share, n)
		}
	}
}
