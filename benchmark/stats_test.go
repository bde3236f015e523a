package main

import "testing"

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples resolved a tail percentile; none has ten samples beyond it")
	}
	for _, c := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{11, 1, 100.0 / 11, "the smallest is the only sample with ten beyond it"},
		{20, 10, 50, "p50 of 20 has ten above it"},
		{1000, 990, 99, "p99 needs a thousand samples"},
		{1001, 991, 100 * 991.0 / 1001, "one more sample moves the percentile up"},
	} {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.v || pct != c.pct {
			t.Errorf("tail of %d samples = %v at p%v (ok %v), want %v at p%v: %s", c.n, v, pct, ok, c.v, c.pct, c.comment)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4), method "exclusive".
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if m := median([]float64{3, 1, 4, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCanonicalJSONIgnoresWhitespaceAndKeyOrder(t *testing.T) {
	compact := []byte(`{"cycles":1234,"request":{"bench":"sc","stages":8},"ipc":1.50}`)
	indented := []byte("{\n  \"request\": {\n    \"stages\": 8,\n    \"bench\": \"sc\"\n  },\n  \"ipc\": 1.50,\n  \"cycles\": 1234\n}\n")
	a, err := canonicalJSON(compact)
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalJSON(indented)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("canonical forms differ:\n%s\n%s", a, b)
	}
	other, err := canonicalJSON([]byte(`{"cycles":1235,"request":{"bench":"sc","stages":8},"ipc":1.50}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(other) == string(a) {
		t.Error("documents with different cycles have the same canonical form")
	}
	if _, err := canonicalJSON([]byte(`{"cycles":`)); err == nil {
		t.Error("truncated document canonicalized without error")
	}
}
