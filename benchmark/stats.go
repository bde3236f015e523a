package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread this benchmark reports is the one a reader
// reproduces with the standard library.  One sample has no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread returns the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it: with n samples that is the (n-10)-th smallest, percentile
// 100·(n-10)/n.  With ten samples or fewer no percentile above the median is
// resolved, and ok is false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := slices.Sorted(slices.Values(xs))
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// canonicalJSON decodes a JSON document and encodes it again, compact and
// with object keys sorted, so two documents that differ only in whitespace
// or key order compare equal.  Numbers keep their literal digits.
func canonicalJSON(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("canonical json: %w", err)
	}
	return json.Marshal(v)
}
