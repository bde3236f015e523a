package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// synthStressSpec is a mispredict-prone spec used across the tests.
func synthStressSpec() *SynthSpec {
	return &SynthSpec{
		Seed:         7,
		Ops:          8192,
		Body:         128,
		AliasSetSize: 4,
		LoopCarried:  0.5,
		DepDists:     []DistBucket{{Dist: 16, Weight: 2}, {Dist: 96, Weight: 1}},
	}
}

// TestSynthDeterministicAcrossWorkers pins the determinism contract through
// the whole stack: the same spec+seed produces DeepEqual simulation results
// on a 1-worker and an 8-worker session, and a byte-identical trace
// (disassembly and committed stream summary).
func TestSynthDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	reqs := []Request{
		{Synth: synthStressSpec()},
		{Synth: synthStressSpec(), Policy: PolicyAlways},
		{Synth: synthStressSpec(), Policy: PolicySync, Stages: 4},
	}
	serial := NewSession(WithWorkers(1))
	parallel := NewSession(WithWorkers(8))
	got1, err := serial.RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	gotN, err := parallel.RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, gotN) {
		t.Fatal("synthetic grid results differ between 1 and 8 workers")
	}
	// Repeating the grid on a fresh session reproduces it exactly.
	again, err := NewSession(WithWorkers(4)).RunGrid(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, again) {
		t.Fatal("synthetic grid results are not reproducible across sessions")
	}

	treq := TraceRequest{Synth: synthStressSpec()}
	asm1, err := serial.Disassemble(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	asmN, err := parallel.Disassemble(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if asm1 != asmN {
		t.Fatal("synthetic disassembly differs across sessions")
	}
	sum1, err := serial.Trace(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	sumN, err := parallel.Trace(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum1, sumN) {
		t.Fatalf("synthetic trace summaries differ: %+v vs %+v", sum1, sumN)
	}
}

// TestSynthSeedsDiffer checks that different seeds yield different
// dependence profiles end to end.
func TestSynthSeedsDiffer(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	a, err := s.Run(ctx, Request{Synth: &SynthSpec{Seed: 1, Ops: 8192, Body: 128}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(ctx, Request{Synth: &SynthSpec{Seed: 2, Ops: 8192, Body: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.Misspeculations == b.Misspeculations && a.Loads == b.Loads {
		t.Fatalf("seeds 1 and 2 are indistinguishable: %d cycles, %d misspecs", a.Cycles, a.Misspeculations)
	}
}

// TestSynthGridSharesWorkItem checks that a synthetic policy grid builds and
// preprocesses its workload once: the cache key is the full spec+seed, so
// requests differing only in policy share the program, trace and work item.
func TestSynthGridSharesWorkItem(t *testing.T) {
	ctx := context.Background()
	s := NewSession(WithWorkers(2))
	reqs := []Request{
		{Synth: synthStressSpec(), Policy: PolicyNever},
		{Synth: synthStressSpec(), Policy: PolicyAlways},
		{Synth: synthStressSpec(), Policy: PolicyESync},
	}
	if _, err := s.RunGrid(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	// 1 build + 1 preprocess + 3 simulations.
	if st := s.Stats(); st.Executed != 5 {
		t.Errorf("executed %d jobs, want 5 (shared build/preprocess)", st.Executed)
	}
	// A different seed is a different workload: nothing is shared.
	other := synthStressSpec()
	other.Seed = 8
	if _, err := s.Run(ctx, Request{Synth: other, Policy: PolicyNever}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Executed != 8 {
		t.Errorf("executed %d jobs, want 8 (new seed rebuilds the pipeline)", st.Executed)
	}
}

// TestSynthResultEcho checks the result is self-describing: it echoes the
// normalized spec and the workload's display name.
func TestSynthResultEcho(t *testing.T) {
	res, err := NewSession().Run(context.Background(), Request{Synth: &SynthSpec{Seed: 3, Ops: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	req := res.Request
	if req.Synth == nil || req.Bench != "" {
		t.Fatalf("result request does not echo the synthetic workload: %+v", req)
	}
	if req.Synth.Body != 512 || req.Synth.Name != "synth" || req.Synth.AliasSetSize != 1 {
		t.Errorf("echoed spec is not normalized: %+v", req.Synth)
	}
	if req.WorkloadName() != "synth" || req.Scale != 1 {
		t.Errorf("workload name %q scale %d", req.WorkloadName(), req.Scale)
	}
}

// TestSynthValidation covers the workload-selection and spec-field errors.
func TestSynthValidation(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	cases := map[string]Request{
		"both":      {Bench: "compress", Synth: &SynthSpec{}},
		"neither":   {},
		"bad_ops":   {Synth: &SynthSpec{Ops: -5}},
		"bad_fracs": {Synth: &SynthSpec{LoadFrac: 0.8, StoreFrac: 0.8}},
		"bad_dist":  {Synth: &SynthSpec{DepDists: []DistBucket{{Dist: 0, Weight: 1}}}},
	}
	for name, req := range cases {
		_, err := s.Run(ctx, req)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: want *ValidationError, got %v", name, err)
		}
	}
	// Spec problems name their fields with the synth. prefix.
	err := (Request{Synth: &SynthSpec{Ops: -5}}).Validate()
	var verr *ValidationError
	if !errors.As(err, &verr) || len(verr.Fields) == 0 {
		t.Fatalf("want field errors, got %v", err)
	}
	if verr.Fields[0].Field != "synth.ops" {
		t.Errorf("field %q, want synth.ops", verr.Fields[0].Field)
	}
}

// TestWorkloadCanonicalJSON pins the workload identity encoding.
func TestWorkloadCanonicalJSON(t *testing.T) {
	b := Workload{Bench: "compress"}
	if got := b.CanonicalJSON(); got != `{"bench":"compress"}` {
		t.Errorf("bench identity %s", got)
	}
	sy := Workload{Synth: &SynthSpec{Seed: 5}}
	got := sy.CanonicalJSON()
	if !strings.HasPrefix(got, `{"synth":{`) || !strings.Contains(got, `"seed":5`) {
		t.Errorf("synth identity %s", got)
	}
	// The identity is the normalized spec: zero and normalized agree.
	norm := SynthSpec{}.Normalize()
	if (Workload{Synth: &SynthSpec{}}).CanonicalJSON() != (Workload{Synth: &norm}).CanonicalJSON() {
		t.Error("zero and normalized specs have different identities")
	}
	if err := (Request{Bench: "compress"}).Validate(); err != nil {
		t.Errorf("bench workload invalid: %v", err)
	}
	if err := (Request{}).Validate(); err == nil {
		t.Error("empty workload validated")
	}
	if (Workload{Synth: &SynthSpec{Name: "x"}}).Name() != "x" {
		t.Error("synth name not honoured")
	}
}

// TestSynthScaleCap checks a huge scale cannot multiply a synthetic
// workload past the generator's dynamic-length cap.
func TestSynthScaleCap(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	_, err := s.Run(ctx, Request{Synth: &SynthSpec{Ops: 5_000_000}, Scale: 1_000_000})
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("over-scaled synth request: want *ValidationError, got %v", err)
	}
	if verr.Fields[0].Field != "scale" {
		t.Errorf("field %q, want scale", verr.Fields[0].Field)
	}
	if _, err := s.Trace(ctx, TraceRequest{Synth: &SynthSpec{Ops: 5_000_000}, Scale: 1_000_000}); !errors.As(err, &verr) {
		t.Errorf("over-scaled trace request: want *ValidationError, got %v", err)
	}
	// A modest scale on a modest spec still works.
	if _, err := s.Run(ctx, Request{Synth: &SynthSpec{Ops: 4096, Body: 64}, Scale: 3}); err != nil {
		t.Errorf("scale 3: %v", err)
	}
}

// TestSuiteSynthValidation checks a bad base spec on SuiteOptions surfaces
// with the same structured shape as everywhere else in the facade.
func TestSuiteSynthValidation(t *testing.T) {
	err := NewSession().RunExperiments(context.Background(), []string{"sensitivity-synth"},
		SuiteOptions{Quick: true, Synth: &SynthSpec{Ops: -1}}, func(Experiment, *Table) {})
	var verr *ValidationError
	if !errors.As(err, &verr) || len(verr.Fields) == 0 {
		t.Fatalf("want *ValidationError with fields, got %v", err)
	}
	if verr.Fields[0].Field != "synth.ops" {
		t.Errorf("field %q, want synth.ops", verr.Fields[0].Field)
	}
}
