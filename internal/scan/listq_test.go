package scan

import (
	"context"
	"math"
	"sync"
	"testing"

	"segdiff/internal/feature"
	"segdiff/internal/segment"
	"segdiff/internal/smooth"
	"segdiff/internal/synth"
)

// listQ is a mirror at the shape the served benchmark's query-deep
// workload searches, built once per process: the centre sensor of a
// three-sensor synth transect (seed 1, 545 days of 5-minute samples from
// 2005-12-01), smoothed with smooth.Robust and segmented at ε 0.2 under
// w 8 h.
var listQ = sync.OnceValues(func() (*Mirror, error) {
	const eps, w = 0.2, 8 * 3600
	raw, _, err := synth.GenerateTransect(synth.Config{Seed: 1, Start: 1133395200, Duration: 545 * 24 * 3600}, 3)
	if err != nil {
		return nil, err
	}
	sm, err := smooth.Robust(raw[1], smooth.Config{})
	if err != nil {
		return nil, err
	}
	var segs []segment.Segment
	sg, err := segment.NewSegmenter(eps, func(g segment.Segment) error {
		segs = append(segs, g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range sm.Points() {
		if err := sg.Push(p); err != nil {
			return nil, err
		}
	}
	if err := sg.Close(); err != nil {
		return nil, err
	}
	return NewMirror(segs, w), nil
})

// listQueries returns the first n queries of the served benchmark's list
// Q: T log-uniform on [10 min, 8 h], |V| uniform on [2, 12], one in five
// a jump, drawn from the R3 low-discrepancy sequence.
func listQueries(n int) []feature.Region {
	const g = 1.2207440846057596 // real root of x^4 = x + 1
	a := [3]float64{1 / g, 1 / (g * g), 1 / (g * g * g)}
	frac := func(d, i int) float64 {
		_, f := math.Modf(0.5 + a[d]*float64(i+1))
		return f
	}
	lo, hi := math.Log(600), math.Log(28800)
	out := make([]feature.Region, n)
	for i := range out {
		T := int64(math.Floor(math.Exp(lo + (hi-lo)*frac(0, i))))
		kind, V := feature.Drop, -(2 + 10*frac(1, i))
		if frac(2, i) < 0.2 {
			kind, V = feature.Jump, -V
		}
		r, err := feature.NewRegion(kind, T, V)
		if err != nil {
			panic(err)
		}
		out[i] = r
	}
	return out
}

// BenchmarkSearchListQ runs the first 300 queries of list Q against one
// 545-day sensor, in process: the scan's share of a served query-deep
// search, without HTTP, fan-out or encoding.
func BenchmarkSearchListQ(b *testing.B) {
	m, err := listQ()
	if err != nil {
		b.Fatal(err)
	}
	qs := listQueries(300)
	matches := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range qs {
			got, err := m.Search(context.Background(), r, 0.2, math.MinInt64)
			if err != nil {
				b.Fatal(err)
			}
			matches += len(got)
		}
	}
	searches := float64(b.N * len(qs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/searches, "ns/search")
	b.ReportMetric(float64(matches)/searches, "matches/search")
}
