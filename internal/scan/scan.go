// Package scan answers drop and jump searches with one pass over the
// piecewise linear approximation itself, recomputing on demand the
// ε-shifted boundary corners that feature extraction (internal/extract)
// would store for each segment pair, and applying the point and line
// queries of Section 4.4 to them in memory.
//
// Theorem 1 depends only on those corners, not on where they are kept, so
// the pass returns exactly the pairs a search over the stored features
// returns: it refines the same pairs Algorithm 1 pairs up (the degenerate
// self pair of each segment AB, then every earlier CD ending after
// t_B − w, truncated at t_B − w when it starts earlier), derives the same
// corners with feature.BoundaryCorners (the case analysis behind the
// extractor's feature.ExtractBoundaries, without its allocations), and
// tests them with feature.Region.MatchesCorners (the predicate behind
// MatchesBoundary).
//
// The result is the only memory a search hands out: an exact-size slice
// the caller owns. The pass appends into a buffer and the radix sort
// ping-pongs through a second one, both reused across searches from a
// pool inside this package that no caller ever sees.
//
// Most end segments cannot match at all. Every corner of a pair ending in
// AB has Δv = v_AB − v_CD − ε (drops) for one endpoint value of each
// segment, so min(v_B, v_A) − max(v over the candidate CDs) − ε bounds
// every corner from below; a monotone deque keeps that max over the CDs
// close enough in time (t_C ≥ t_B − T) to have a corner with Δt ≤ T, and
// an end segment whose bound exceeds V is skipped without refining a
// pair. A line query interpolates between corners and also needs one
// corner inside the region, so the skip cannot drop a match. Jumps mirror
// it (max for min, +ε, skip below V).
package scan

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"segdiff/internal/feature"
	"segdiff/internal/segment"
)

// Interval is a closed time interval [Start, End].
type Interval struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t int64) bool { return iv.Start <= t && t <= iv.End }

// Match is one search result, the paper's tuple ((t_D, t_C), (t_B, t_A)):
// the drop (or jump) starts somewhere in From = [t_D, t_C] and ends
// somewhere in To = [t_B, t_A]. It is the one match type from the pass to
// the wire: the public segdiff.Match is an alias of it.
type Match struct {
	From Interval `json:"from"`
	To   Interval `json:"to"`
}

// entry is one candidate CD of the skip bound's deque.
type entry struct {
	te int64
	v  float64
}

// buffers are one search's working memory: the pass's unsorted output,
// the radix sort's scratch and the skip bound's deque. They are pooled
// across searches and never escape Search.
type buffers struct {
	out, tmp []Match
	dq       []entry
}

var bufPool = sync.Pool{New: func() any { return new(buffers) }}

// checkEvery is how many end segments the pass visits between two
// context checks.
const checkEvery = 1024

// truncSlack widens a segment's value range by a relative margin that
// covers the rounding of Segment.Value: a CD truncated at t_B − w starts
// at an interpolated value, which can exceed max(v_D, v_C) (or undercut
// the min) by a few ulps. The margin keeps the skip bound conservative.
const truncSlack = 0x1p-48

// Search returns every segment pair whose stored boundary of r's kind
// meets r, over segs (the approximation in time order, as persisted),
// with segmentation tolerance eps and window w. Only pairs whose end
// segment AB ends after `after` are reported: earlier segments serve as
// CDs only (retention keeps them for that). The result is sorted by
// (t_D, t_B), never nil, exactly as long as it needs to be and owned by
// the caller. ctx is checked before the pass and every checkEvery end
// segments; its error is wrapped.
func Search(ctx context.Context, segs []segment.Segment, r feature.Region, eps float64, w int64, after int64) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	b := bufPool.Get().(*buffers)
	defer bufPool.Put(b)
	out, err := b.pass(ctx, segs, r, eps, w, after)
	if err != nil {
		return nil, err
	}
	return b.sortByTD(out), nil
}

// pass appends to b.out every pair of segs that meets r, in ascending
// t_B, and returns b.out.
func (b *buffers) pass(ctx context.Context, segs []segment.Segment, r feature.Region, eps float64, w int64, after int64) ([]Match, error) {
	drop := r.Kind == feature.Drop
	// bound is the most extreme start value a CD of g can contribute:
	// its max for drops, its min for jumps.
	bound := func(g segment.Segment) float64 {
		slack := truncSlack * (math.Abs(g.Vs) + math.Abs(g.Ve))
		if drop {
			return max(g.Vs, g.Ve) + slack
		}
		return min(g.Vs, g.Ve) - slack
	}
	// further reports whether a is at least as extreme as b.
	further := func(a, b float64) bool {
		if drop {
			return a >= b
		}
		return a <= b
	}
	// skip reports whether no corner with end values of ab and start
	// value at most (drops) or at least (jumps) start can meet r.
	skip := func(ab segment.Segment, start float64) bool {
		if drop {
			return min(ab.Vs, ab.Ve)-start-eps > r.V
		}
		return max(ab.Vs, ab.Ve)-start+eps < r.V
	}

	dq := b.dq[:0] // candidate CDs, oldest first, bounds strictly decreasing in extremity
	head := 0
	out := b.out[:0]
	defer func() { b.out, b.dq = out, dq }() // keep what grew for the next search
	for j, ab := range segs {
		if j > 0 {
			e := entry{segs[j-1].Te, bound(segs[j-1])}
			for len(dq) > head && further(e.v, dq[len(dq)-1].v) {
				dq = dq[:len(dq)-1]
			}
			dq = append(dq, e)
		}
		// A CD ending before t_B − T has every corner at Δt > T.
		lim := ab.Ts - r.T
		for head < len(dq) && dq[head].te < lim {
			head++
		}
		if head > 64 && 2*head > len(dq) {
			dq = dq[:copy(dq, dq[head:])]
			head = 0
		}
		if j%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("scan: %w", err)
			}
		}
		if ab.Te <= after {
			continue
		}
		start := ab.Vs // the self pair's CD is the point B
		if head < len(dq) && further(dq[head].v, start) {
			start = dq[head].v
		}
		if skip(ab, start) {
			continue
		}

		if !skip(ab, ab.Vs) {
			p, err := feature.SelfPair(ab)
			if err != nil {
				return nil, err
			}
			if out, err = refine(out, p, r, eps); err != nil {
				return nil, err
			}
		}
		winStart := ab.Ts - w
		for i := j - 1; i >= 0; i-- {
			cd := segs[i]
			if cd.Te < lim || cd.Te <= winStart {
				break
			}
			if cd.Ts < winStart {
				// Truncate CD at the window start, as extraction does.
				cd = segment.Segment{Ts: winStart, Vs: cd.Value(winStart), Te: cd.Te, Ve: cd.Ve}
			}
			start := max(cd.Vs, cd.Ve)
			if !drop {
				start = min(cd.Vs, cd.Ve)
			}
			if skip(ab, start) {
				continue
			}
			p, err := feature.NewParallelogram(cd, ab)
			if err != nil {
				return nil, err
			}
			if out, err = refine(out, p, r, eps); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// radixBits is the digit width of sortByTD: 2^11 counters fit in L1,
// and three passes cover the ~2^26 s that a 540-day history spans.
const radixBits = 11

// sortByTD returns ms sorted by t_D in a new slice of exactly len(ms),
// by a stable LSD radix sort over t_D − min(t_D). The last pass writes
// the result; the ones before alternate between b.tmp and ms itself.
// Search emits its end segments in ascending t_B, so equal t_Ds arrive
// in t_B order and the stable sort leaves the result ordered by
// (t_D, t_B).
func (b *buffers) sortByTD(ms []Match) []Match {
	res := make([]Match, len(ms))
	if len(ms) == 0 {
		return res
	}
	lo, hi := ms[0].From.Start, ms[0].From.Start
	for _, m := range ms[1:] {
		lo, hi = min(lo, m.From.Start), max(hi, m.From.Start)
	}
	passes := (bits.Len64(uint64(hi)-uint64(lo)) + radixBits - 1) / radixBits
	if passes == 0 {
		copy(res, ms)
		return res
	}
	if passes > 1 {
		b.tmp = slices.Grow(b.tmp[:0], len(ms))[:len(ms)]
	}
	src := ms
	for p := 0; p < passes; p++ {
		dst := res
		if p < passes-1 {
			dst = b.tmp
			if p%2 == 1 {
				dst = ms
			}
		}
		shift := uint(p * radixBits)
		digit := func(m Match) uint64 { return (uint64(m.From.Start) - uint64(lo)) >> shift & (1<<radixBits - 1) }
		var next [1 << radixBits]int
		for _, m := range src {
			next[digit(m)]++
		}
		sum := 0
		for i, c := range next {
			next[i] = sum
			sum += c
		}
		for _, m := range src {
			d := digit(m)
			dst[next[d]] = m
			next[d]++
		}
		src = dst
	}
	return res
}

// refine appends p's pair to out if its stored boundary of r's kind meets r.
func refine(out []Match, p feature.Parallelogram, r feature.Region, eps float64) ([]Match, error) {
	cs, n, err := feature.BoundaryCorners(p, eps, r.Kind)
	if err != nil {
		return nil, err
	}
	if r.MatchesCorners(cs[:n]) {
		if len(out) == cap(out) {
			// Double: append grows a large slice by 1.25×, which
			// allocates ~5× the final output and copies it ~4 times.
			out = slices.Grow(out, len(out)+1)
		}
		out = append(out, Match{From: Interval{Start: p.TD, End: p.TC}, To: Interval{Start: p.TB, End: p.TA}})
	}
	return out, nil
}
