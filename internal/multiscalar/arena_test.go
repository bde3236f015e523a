package multiscalar

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"memdep/internal/memdep"
	"memdep/internal/policy"
	"memdep/internal/workload"
)

// TestSimulatorReuseMatchesFresh is the arena-reuse regression gate: running
// the same work item twice on one reused Simulator must produce Results
// deeply equal to each other and to a fresh, unpooled simulation -- for both
// cores and all three predictor-table organizations.  Any state leaking
// across Reset (table contents, counters, SoA slices, the pair arena) shows
// up here as a diverging second run.
func TestSimulatorReuseMatchesFresh(t *testing.T) {
	w := prep(t, workload.MustGet("compress").Build(1), 20_000)
	ctx := context.Background()
	for _, core := range []CoreMode{CoreEvent, coreStepped} {
		for _, table := range []memdep.TableKind{memdep.TableFullAssoc, memdep.TableSetAssoc, memdep.TableStoreSet} {
			t.Run(fmt.Sprintf("%v/%v", core, table), func(t *testing.T) {
				cfg := DefaultConfig(8, policy.ESync)
				cfg.Core = core
				cfg.MemDep.Table = table
				if table != memdep.TableFullAssoc {
					cfg.MemDep.Ways = 4
				}

				sm := NewSimulator()
				first, err := sm.Simulate(ctx, w, cfg)
				if err != nil {
					t.Fatalf("first run: %v", err)
				}
				second, err := sm.Simulate(ctx, w, cfg)
				if err != nil {
					t.Fatalf("second (reused) run: %v", err)
				}
				fresh, err := Simulate(w, cfg)
				if err != nil {
					t.Fatalf("fresh run: %v", err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Errorf("reused arena diverged from its own first run:\nfirst:  %+v\nsecond: %+v", first, second)
				}
				if !reflect.DeepEqual(first, fresh) {
					t.Errorf("arena run diverged from fresh simulation:\narena: %+v\nfresh: %+v", first, fresh)
				}
			})
		}
	}
}

// TestSimulatorReuseAcrossConfigs exercises the arena's config-change paths:
// alternating policies (predictor parked and restored), stage counts (FU and
// SoA re-carving) and work items on one Simulator must still match fresh
// simulations every time.
func TestSimulatorReuseAcrossConfigs(t *testing.T) {
	ctx := context.Background()
	items := []*WorkItem{
		prep(t, workload.MustGet("compress").Build(1), 10_000),
		prep(t, workload.MustGet("xlisp").Build(1), 20_000),
	}
	runs := []struct {
		item   int
		stages int
		pol    policy.Kind
	}{
		{0, 4, policy.ESync},
		{0, 4, policy.Always}, // predictor parked
		{0, 4, policy.ESync},  // predictor restored (rebuilt state must not leak)
		{1, 8, policy.Sync},   // bigger item + more stages: everything re-carved
		{0, 2, policy.Never},
		{1, 8, policy.Sync}, // shrink back up again
	}
	sm := NewSimulator()
	for i, r := range runs {
		cfg := DefaultConfig(r.stages, r.pol)
		got, err := sm.Simulate(ctx, items[r.item], cfg)
		if err != nil {
			t.Fatalf("run %d (%v, %d stages): %v", i, r.pol, r.stages, err)
		}
		want, err := Simulate(items[r.item], cfg)
		if err != nil {
			t.Fatalf("run %d fresh: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%v, %d stages) diverged from fresh simulation:\narena: %+v\nfresh: %+v",
				i, r.pol, r.stages, got, want)
		}
	}
}
