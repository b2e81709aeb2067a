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
// A Mirror holds the approximation with, for each end segment AB and each
// span w>>k (k < levels), a skip bound: every corner of a pair ending in
// AB has Δv = v_AB − v_CD − ε (drops) for one endpoint value of each
// segment, so min(v_B, v_A) − max(v_B, v over the CDs ending within the
// span) − ε bounds every corner whose Δt can be at most that span from
// below. A search reads the bound of the smallest span at least T and
// refines only the end segments it does not rule out; a line query
// interpolates between corners and also needs one corner inside the
// region, so the skip cannot drop a match. Jumps mirror it over −v. The
// bounds cost 112 B per segment in memory and nothing on disk; they are
// append-only, so a commit derives only its new segments' bounds.
//
// The pass emits each surviving end segment's CDs oldest first and its
// self pair last, so the answer comes out in strictly ascending
// (t_B, t_D) with no sort: new data only appends to an answer's tail. The
// result is the only memory a search hands out: an exact-size slice the
// caller owns, copied from an output buffer pooled inside this package.
package scan

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
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

// levels is the number of spans a Mirror keeps skip bounds for: w,
// w/2, …, w/64.
const levels = 7

// Mirror is an immutable in-memory copy of a sensor's approximation, the
// segments in time order as persisted, together with each end segment's
// skip bounds. Extend derives a longer mirror after a commit; a mirror is
// never modified once returned, so searches read it without a lock.
type Mirror struct {
	segs []segment.Segment
	w    int64
	// drop[k][j] is the skip bound of end segment segs[j] at span w>>k:
	// min(v_B, v_A) − max(v_B, the start bound of every CD ending at or
	// after t_B − w>>k), where a CD's start bound is max(v_D, v_C)
	// widened by truncSlack. It bounds from below the unshifted Δv of
	// every corner of every pair ending in segs[j] whose Δt can be at
	// most w>>k. jump[k][j] is the same bound over the negated values:
	// jumps are drops of −v.
	drop, jump [levels][]float64
}

// NewMirror returns the mirror of segs (a valid approximation in time
// order) under window w, deriving every skip bound. It copies segs.
func NewMirror(segs []segment.Segment, w int64) *Mirror {
	return (&Mirror{w: w}).Extend(segs)
}

// Extend returns the mirror of m's segments followed by more, deriving
// the bounds of the new end segments only: their CDs lie within w, so
// the work is the new segments' and the w before them. m stays valid.
// The new mirror appends to m's arrays past m's lengths, so extending a
// mirror twice would overwrite the first extension: extend only the
// newest mirror of a chain.
func (m *Mirror) Extend(more []segment.Segment) *Mirror {
	x := &Mirror{segs: append(m.segs, more...), w: m.w}
	if len(more) == 0 {
		x.drop, x.jump = m.drop, m.jump
		return x
	}
	n := len(m.segs)
	// The CDs of the new end segments end at or after more[0].Ts − w.
	lo := sort.Search(n, func(i int) bool { return m.segs[i].Te >= more[0].Ts-m.w })
	x.drop = extendBounds(m.drop, x.segs, lo, n, m.w, 1)
	x.jump = extendBounds(m.jump, x.segs, lo, n, m.w, -1)
	return x
}

// Segments returns the mirrored approximation. The caller must not modify
// it.
func (m *Mirror) Segments() []segment.Segment { return m.segs }

// cdBound is one CD's end time and start bound.
type cdBound struct {
	te int64
	v  float64
}

// extendBounds appends to bs, at every level, the drop-oriented skip bound
// of each end segment segs[j], j ≥ n, over the values times sign (±1, so
// exact). No end segment from n on can pair with a segment before lo.
//
// One monotone deque serves every level. It holds the CDs ending within w
// of the current end segment, oldest first, with strictly decreasing
// start bounds: a CD followed by one of no lower bound can never again
// be the maximum. So the maximum over the CDs ending at or after any time
// is the bound of the first entry ending at or after it, and the levels
// find theirs by walking the deque forward from the widest span.
func extendBounds(bs [levels][]float64, segs []segment.Segment, lo, n int, w int64, sign float64) [levels][]float64 {
	var dq []cdBound
	for j := lo; j < len(segs); j++ {
		g := segs[j]
		if j >= n {
			for len(dq) > 0 && dq[0].te < g.Ts-w {
				dq = dq[1:]
			}
			vb := sign * g.Vs // the self pair's CD is the point B
			low := min(vb, sign*g.Ve)
			i := 0
			for k := range bs {
				for i < len(dq) && dq[i].te < g.Ts-w>>k {
					i++
				}
				start := vb
				if i < len(dq) {
					start = max(start, dq[i].v)
				}
				bs[k] = append(bs[k], low-start)
			}
		}
		e := cdBound{g.Te, max(sign*g.Vs, sign*g.Ve) + truncSlack*(math.Abs(g.Vs)+math.Abs(g.Ve))}
		for len(dq) > 0 && dq[len(dq)-1].v <= e.v {
			dq = dq[:len(dq)-1]
		}
		dq = append(dq, e)
	}
	return bs
}

// level returns the smallest kept span at least T ≤ w: the largest
// k < levels with w>>k ≥ T.
func level(T, w int64) int {
	k := 0
	for k+1 < levels && w>>(k+1) >= T {
		k++
	}
	return k
}

// outPool reuses the pass's output buffer across searches; it never
// escapes Search.
var outPool = sync.Pool{New: func() any { return new([]Match) }}

// checkEvery is how many end segments the pass visits between two
// context checks.
const checkEvery = 1024

// truncSlack widens a segment's value range by a relative margin that
// covers the rounding of Segment.Value: a CD truncated at t_B − w starts
// at an interpolated value, which can exceed max(v_D, v_C) (or undercut
// the min) by a few ulps. The margin keeps the skip bound conservative.
const truncSlack = 0x1p-48

// Search returns every segment pair whose stored boundary of r's kind
// meets r (r.T at most the mirror's window), with segmentation tolerance
// eps. Only pairs whose end segment AB ends after `after` are reported:
// earlier segments serve as CDs only (retention keeps them for that). The
// result is in strictly ascending (t_B, t_D), never nil, exactly as long
// as it needs to be and owned by the caller. ctx is checked before the
// pass and every checkEvery end segments; its error is wrapped.
func (m *Mirror) Search(ctx context.Context, r feature.Region, eps float64, after int64) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	buf := outPool.Get().(*[]Match)
	defer outPool.Put(buf)
	out, err := m.pass(ctx, (*buf)[:0], r, eps, after)
	if err != nil {
		return nil, err
	}
	*buf = out // keep what grew for the next search
	res := make([]Match, len(out))
	copy(res, out)
	return res, nil
}

// pass appends to out every pair that meets r, in ascending (t_B, t_D),
// and returns out.
func (m *Mirror) pass(ctx context.Context, out []Match, r feature.Region, eps float64, after int64) ([]Match, error) {
	drop := r.Kind == feature.Drop
	// An end segment whose bound at the smallest span covering T, less ε,
	// exceeds V (drops; jumps in the negated orientation) has no corner
	// in the region, and a line query also needs one, so it is skipped.
	bound, v := m.drop[level(r.T, m.w)], r.V
	if !drop {
		bound, v = m.jump[level(r.T, m.w)], -r.V
	}
	// skip reports whether no corner with end values of ab and start
	// value at most (drops) or at least (jumps) start can meet r.
	skip := func(ab segment.Segment, start float64) bool {
		if drop {
			return min(ab.Vs, ab.Ve)-start-eps > r.V
		}
		return max(ab.Vs, ab.Ve)-start+eps < r.V
	}

	segs := m.segs
	first := sort.Search(len(segs), func(i int) bool { return segs[i].Te > after })
	for j := first; j < len(segs); j++ {
		if j%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("scan: %w", err)
			}
		}
		if bound[j]-eps > v {
			continue
		}
		ab := segs[j]
		// The CDs end after t_B − w (pairing) and at or after t_B − T
		// (a CD ending earlier has every corner at Δt > T); emit them
		// oldest first, so t_D ascends.
		lim, winStart := ab.Ts-r.T, ab.Ts-m.w
		i := j
		for i > 0 && segs[i-1].Te >= lim && segs[i-1].Te > winStart {
			i--
		}
		for ; i < j; i++ {
			cd := segs[i]
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
			if out, err = refine(out, &p, r, eps); err != nil {
				return nil, err
			}
		}
		// The self pair starts at t_B, after every CD.
		if !skip(ab, ab.Vs) {
			p, err := feature.SelfPair(ab)
			if err != nil {
				return nil, err
			}
			if out, err = refine(out, &p, r, eps); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// refine appends p's pair to out if its stored boundary of r's kind meets r.
func refine(out []Match, p *feature.Parallelogram, r feature.Region, eps float64) ([]Match, error) {
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
