package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	// The highest percentile reported is the one with at least ten
	// samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if !supports(300, 95) || supports(300, 99) {
		t.Errorf("300 samples must support p95 and not p99")
	}
	if !supports(100, 90) || supports(100, 95) {
		t.Errorf("100 samples must support p90 and not p95")
	}
	// Every workload's default op counts support the percentiles the
	// end-to-end metrics are named after.
	for _, w := range workloads {
		if !supports(w.queries, 95) {
			t.Errorf("%s measures %d queries: query_p95_ms unsupported", w.name, w.queries)
		}
		if !supports(w.appends, 90) {
			t.Errorf("%s measures %d appends: append_p90_ms unsupported", w.name, w.appends)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 10: 1, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of nothing must be NaN")
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %g, %g, want 0.5, 3.5", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if spread([]float64{7}) != 0 {
		t.Errorf("one value has no spread")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
