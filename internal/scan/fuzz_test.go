package scan

import (
	"context"
	"fmt"
	"math"
	"testing"

	"segdiff/internal/feature"
	"segdiff/internal/segment"
)

// maxFuzzSegments caps the approximation FuzzSearch builds, so that the
// oracle's every-pair loop stays fast.
const maxFuzzSegments = 300

// fuzzBatch is how many segments FuzzSearch adds to its mirror per
// Extend, as commits do, so that the judge covers the extension too.
const fuzzBatch = 5

// fuzzSegments decodes data, three bytes per segment, into a valid
// approximation starting at time 0: byte 0 is a gap before the segment
// (none below 0x80), byte 1 its duration − 1 and byte 2 its value change
// in eighths, so values tie often. A segment after a gap starts at a
// value of its own.
func fuzzSegments(data []byte) []segment.Segment {
	var segs []segment.Segment
	t, v := int64(0), 0.0
	for len(data) >= 3 && len(segs) < maxFuzzSegments {
		gap, dur, dv := data[0], data[1], data[2]
		data = data[3:]
		if gap >= 0x80 {
			t += int64(gap - 0x7f)
			v += float64(int8(gap<<1)) / 8
		}
		g := segment.Segment{Ts: t, Vs: v, Te: t + 1 + int64(dur), Ve: v + float64(int8(dv))/8}
		segs = append(segs, g)
		t, v = g.Te, g.Ve
	}
	return segs
}

// oracle answers a search the slow way, sharing none of Search's pairing,
// skip bound, truncation or order: it takes every pair in the window — the
// self pair of each end segment AB and every earlier CD that ends after
// t_B − w, cut at t_B − w when it starts earlier — and keeps those whose
// AB ends after the cutoff and whose ε-shifted parallelogram meets r by
// exact polygon clipping.
func oracle(t *testing.T, segs []segment.Segment, r feature.Region, eps float64, w, after int64) map[Match]bool {
	t.Helper()
	shift := -eps
	if r.Kind == feature.Jump {
		shift = eps
	}
	out := map[Match]bool{}
	keep := func(p feature.Parallelogram, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if p.TA > after && r.IntersectsParallelogram(p, shift) {
			out[Match{From: Interval{Start: p.TD, End: p.TC}, To: Interval{Start: p.TB, End: p.TA}}] = true
		}
	}
	for j, ab := range segs {
		keep(feature.SelfPair(ab))
		start := ab.Ts - w
		for _, cd := range segs[:j] {
			if cd.Te <= start {
				continue
			}
			if cd.Ts < start {
				cd.Vs += (cd.Ve - cd.Vs) * float64(start-cd.Ts) / float64(cd.Te-cd.Ts)
				cd.Ts = start
			}
			keep(feature.NewParallelogram(cd, ab))
		}
	}
	return out
}

// FuzzSearch judges Search against oracle over fuzzed approximations,
// both kinds, any T ≤ w, V, ε and cutoff, on a mirror built by Extend a
// few segments at a time. Search and the polygon clipping round
// differently, so a pair whose Δv comes within a rounding error of V may
// go either way: Search must return every pair the oracle finds for V
// tightened by a margin far below the data's 1/8 steps, only pairs it
// finds for V loosened by that margin, and each once, in strictly
// ascending (t_B, t_D) order. testdata/fuzz/FuzzSearch holds the
// checked-in corpus: long CDs cut by a short window, a pair whose match
// sits within ε of V, a cutoff inside the series, broad answers with
// many matches per end segment, a match whose only high CD ends exactly T
// before AB at T = w and at T = w/4 + 1 (the bound of span w/2 must be
// read, not w/4's), and a search at T < w/64, under the narrowest span.
func FuzzSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, jump bool, T int64, V, eps float64, w, after int64) {
		segs := fuzzSegments(data)
		w = 1 + int64(uint64(w)%8192)
		T = 1 + int64(uint64(T)%uint64(w))
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 0
		}
		eps = math.Mod(math.Abs(eps), 4)
		kind := feature.Drop
		if jump {
			kind = feature.Jump
		}
		r, err := feature.NewRegion(kind, T, V)
		if err != nil {
			return // V of the wrong sign, zero or not finite
		}
		scale := 1 + math.Abs(V) + eps
		for _, g := range segs {
			scale = max(scale, math.Abs(g.Vs), math.Abs(g.Ve))
		}
		margin := 1e-9 * scale
		if kind == feature.Drop {
			margin = -margin
		}
		sure, errSure := feature.NewRegion(kind, T, V+margin)
		maybe, errMaybe := feature.NewRegion(kind, T, V-margin)
		if errSure != nil || errMaybe != nil {
			return // V within the margin of 0
		}
		m := NewMirror(nil, w)
		for k := 0; k < len(segs); k += fuzzBatch {
			m = m.Extend(segs[k:min(k+fuzzBatch, len(segs))])
		}
		got, err := m.Search(context.Background(), r, eps, after)
		if err != nil {
			t.Fatal(err)
		}
		setting := fmt.Sprintf("%v T=%d V=%v ε=%v w=%d after=%d over %d segments", kind, T, V, eps, w, after, len(segs))
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if compareTBTD(a, b) >= 0 {
				t.Fatalf("%s: match %d of %d, %+v, does not follow %+v in (t_B, t_D) order", setting, i, len(got), b, a)
			}
		}
		found := make(map[Match]bool, len(got))
		allowed := oracle(t, segs, maybe, eps, w, after)
		for _, m := range got {
			if !allowed[m] {
				t.Fatalf("%s: scan returned %+v, which the oracle does not find", setting, m)
			}
			found[m] = true
		}
		for m := range oracle(t, segs, sure, eps, w, after) {
			if !found[m] {
				t.Fatalf("%s: scan missed %+v of the oracle's answer", setting, m)
			}
		}
	})
}
