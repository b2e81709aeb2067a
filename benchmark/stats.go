package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before
// the benchmark reports it: fewer and the figure is one or two outliers,
// not a property of the system.
const tailSamples = 10

// supports reports whether n samples are enough to report percentile p.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailSamples-1e-9 // 100-99.9 is not exactly 0.1
}

// highestPercentile returns the highest of the usual percentiles that n
// samples support, 50 when even p75 is out of reach.
func highestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if supports(n, p) {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of xs (0 < p <= 100); it
// sorts a copy. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the mean of the middle two for even counts, unlike
// percentile(xs, 50): it summarizes repetitions, where counts are small.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(xs, n=4) uses, so spreads computed here match the
// driver's. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure bounds are judged against. Zero for fewer than
// two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
