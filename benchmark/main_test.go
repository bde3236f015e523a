package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestFailedRequestsFailTheRun sends requests to a deployment that answers
// 200 and to one that answers 503: the refused requests must be counted,
// and the run must not come out correct with a p50 of 0 for the failing
// path.
func TestFailedRequestsFailTheRun(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"cycles": 1}`)) //nolint:errcheck // the client checks the reply
	}))
	defer ok.Close()
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer refusing.Close()

	r := &run{procs: 2, client: ok.Client()}
	o := newOutcome("direct", "routed")
	o.setup, o.rss = []float64{0.5}, []float64{100}
	bs := [][]byte{[]byte(`{}`), []byte(`{}`), []byte(`{}`)}
	ctx := context.Background()
	if _, err := r.sendAll(ctx, o, &o.primary, ok.URL, bs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sendAll(ctx, o, &o.alt, refusing.URL, bs); err != nil {
		t.Fatal(err)
	}

	values, _ := o.endToEnd(1)
	checkOutcome(&r.checks, spec.EndToEnd, values, o)
	res, err := newResult(spec.EndToEnd, values, o, &r.checks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 6 || res.Failed != 3 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 6 3", res.Correct, res.Attempted, res.Failed)
	}
	failures := strings.Join(r.checks.failures, "\n")
	for _, want := range []string{"3 of 6 operations failed", "alt_p50_ms is 0", "alt_ops_per_s is 0"} {
		if !strings.Contains(failures, want) {
			t.Errorf("no failed check %q in:\n%s", want, failures)
		}
	}
	if strings.Contains(failures, "end-to-end p50_ms") {
		t.Errorf("the succeeding path failed a check:\n%s", failures)
	}
}
