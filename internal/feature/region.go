package feature

import (
	"fmt"
	"math"
)

// Region is a query region in feature space (Section 3): for Drop it is
// {(Δt, Δv) : 0 < Δt ≤ T, Δv ≤ V} with V < 0; for Jump it is
// {(Δt, Δv) : 0 < Δt ≤ T, Δv ≥ V} with V > 0.
type Region struct {
	Kind Kind
	T    int64   // threshold for time span, T > 0
	V    float64 // threshold for change: V < 0 for Drop, V > 0 for Jump
}

// NewRegion validates the thresholds and returns the region.
func NewRegion(kind Kind, T int64, V float64) (Region, error) {
	if T <= 0 {
		return Region{}, fmt.Errorf("feature: non-positive time span threshold T=%d", T)
	}
	if math.IsNaN(V) || math.IsInf(V, 0) {
		return Region{}, fmt.Errorf("feature: non-finite V=%v", V)
	}
	switch kind {
	case Drop:
		if V >= 0 {
			return Region{}, fmt.Errorf("feature: drop search requires V < 0, got %v", V)
		}
	case Jump:
		if V <= 0 {
			return Region{}, fmt.Errorf("feature: jump search requires V > 0, got %v", V)
		}
	default:
		return Region{}, fmt.Errorf("feature: unknown kind %v", kind)
	}
	return Region{Kind: kind, T: T, V: V}, nil
}

// ContainsPoint is the point query of Section 4.4: Δt ≤ T and Δv ≤ V
// (drop) or Δv ≥ V (jump). Following the paper, the Δt > 0 constraint is
// not applied to stored corners: a corner at Δt = 0 inside the value range
// still witnesses events at arbitrarily small positive Δt on the adjacent
// boundary, so including it preserves the approximation guarantee.
func (r Region) ContainsPoint(p Point) bool {
	if p.Dt > r.T {
		return false
	}
	if r.Kind == Drop {
		return p.Dv <= r.V
	}
	return p.Dv >= r.V
}

// CrossesEdge is the line query of Section 4.4: it reports whether the
// feature segment (p, q) intersects the region while neither endpoint
// satisfies the point query — the only remaining way a straight edge can
// meet the region. The paper's printed predicate contains a typo (it
// evaluates the boundary at Δt = T starting from Δv” while multiplying by
// (T − Δt')); the corrected evaluation from the left endpoint is used here
// and is validated against exact geometry by the package tests. The
// interpolation runs in the order the stored-feature line query evaluates
// it, Δv' + (Δv” − Δv')/(Δt” − Δt')·(T − Δt'), so both give bit-identical
// answers; the outer conversion keeps the compiler from fusing the
// multiply-add, which would round differently.
func (r Region) CrossesEdge(p, q Point) bool {
	if p.Dt > q.Dt {
		p, q = q, p
	}
	if p.Dt == q.Dt {
		return false // vertical or degenerate edge: endpoints cover it
	}
	atT := p.Dv + float64((q.Dv-p.Dv)/float64(q.Dt-p.Dt)*float64(r.T-p.Dt))
	if r.Kind == Drop {
		return p.Dt <= r.T && p.Dv > r.V && q.Dt > r.T && q.Dv <= r.V && atT <= r.V
	}
	return p.Dt <= r.T && p.Dv < r.V && q.Dt > r.T && q.Dv >= r.V && atT >= r.V
}

// MatchesBoundary reports whether the stored boundary intersects the
// region (see MatchesCorners). The boundary's kind must equal the region's
// kind.
func (r Region) MatchesBoundary(b Boundary) bool {
	return b.Kind == r.Kind && r.MatchesCorners(b.Corners)
}

// MatchesCorners reports whether the boundary with corners cs (of r's
// kind, in ascending Δt) intersects the region: the union of point queries
// on its corners and line queries on its consecutive corner pairs.
func (r Region) MatchesCorners(cs []Point) bool {
	for _, c := range cs {
		if r.ContainsPoint(c) {
			return true
		}
	}
	for i := 0; i+1 < len(cs); i++ {
		if r.CrossesEdge(cs[i], cs[i+1]) {
			return true
		}
	}
	return false
}

// IntersectsParallelogram is the exact geometric oracle: whether the
// region intersects the full parallelogram shifted by shift in Δv
// (shift = −ε for drop storage, +ε for jump storage, 0 for the unshifted
// parallelogram). It clips the parallelogram polygon against Δt ≤ T and
// Δt ≥ 0 and compares the extreme Δv of the clipped polygon against V.
// Used by tests to validate Table 2 and by the A1 ablation.
func (r Region) IntersectsParallelogram(p Parallelogram, shift float64) bool {
	poly := p.vertices()
	for i := range poly {
		poly[i][1] += shift
	}
	// Clip to 0 ≤ Δt ≤ T.
	poly = clip(poly, func(v [2]float64) float64 { return v[0] })                // Δt ≥ 0
	poly = clip(poly, func(v [2]float64) float64 { return float64(r.T) - v[0] }) // Δt ≤ T
	if len(poly) == 0 {
		return false
	}
	if r.Kind == Drop {
		lo := math.Inf(1)
		for _, v := range poly {
			lo = math.Min(lo, v[1])
		}
		return lo <= r.V
	}
	hi := math.Inf(-1)
	for _, v := range poly {
		hi = math.Max(hi, v[1])
	}
	return hi >= r.V
}

// clip performs one Sutherland–Hodgman half-plane clip of the polygon:
// keep(v) ≥ 0 means v is kept. Degenerate (collinear) polygons are
// handled because the algorithm operates purely on edges.
func clip(poly [][2]float64, keep func([2]float64) float64) [][2]float64 {
	if len(poly) == 0 {
		return nil
	}
	var out [][2]float64
	n := len(poly)
	for i := 0; i < n; i++ {
		cur, next := poly[i], poly[(i+1)%n]
		kc, kn := keep(cur), keep(next)
		if kc >= 0 {
			out = append(out, cur)
		}
		if (kc < 0) != (kn < 0) {
			// Edge crosses the boundary: add the intersection point.
			t := kc / (kc - kn)
			out = append(out, [2]float64{
				cur[0] + t*(next[0]-cur[0]),
				cur[1] + t*(next[1]-cur[1]),
			})
		}
	}
	return out
}
