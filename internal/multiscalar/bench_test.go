package multiscalar

import (
	"context"
	"testing"

	"memdep/internal/policy"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// benchWork preprocesses the same xlisp stand-in the memdep-perf tool
// measures (50k instructions).
func benchWork(b *testing.B) *WorkItem {
	b.Helper()
	w, err := Preprocess(workload.MustGet("xlisp").Build(1), trace.Config{MaxInstructions: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSimulatePooled measures SimulateContext, the pooled entry point
// every driver goes through.
func BenchmarkSimulatePooled(b *testing.B) {
	w := benchWork(b)
	cfg := DefaultConfig(8, policy.ESync)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateContext(ctx, w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateReused measures a single warmed arena run back-to-back on
// the same work item: the zero-allocation steady state of a reused Simulator.
func BenchmarkSimulateReused(b *testing.B) {
	w := benchWork(b)
	cfg := DefaultConfig(8, policy.ESync)
	ctx := context.Background()
	sm := NewSimulator()
	if _, err := sm.Simulate(ctx, w, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.Simulate(ctx, w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
