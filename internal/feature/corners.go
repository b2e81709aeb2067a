package feature

import (
	"fmt"
	"slices"
)

// Boundary is the stored feature for one (segment pair, search kind): the
// ε-shifted corner points of the parallelogram boundary that a query
// region of that kind must intersect if it intersects the parallelogram
// (lower-left boundary for drops shifted down by ε, upper-left boundary
// for jumps shifted up by ε — Table 2 plus Lemma 4).
//
// Corners holds 1 to 3 feature points ordered by ascending Δt. The four
// timestamps identify the two data segments so a search can report the
// paper's result tuple ((t_D, t_C), (t_B, t_A)).
type Boundary struct {
	Kind           Kind
	Case           Case
	Corners        []Point
	TD, TC, TB, TA int64
}

// shift returns p with Dv displaced by d.
func shift(p Point, d float64) Point { return Point{Dt: p.Dt, Dv: p.Dv + d} }

// identicalCorner reports whether two shifted corners are the same point.
// Bit-exact equality is intended: consecutive duplicates arise only when a
// degenerate parallelogram feeds the *same* corner through the *same*
// shift, so both values come from one computation and no independently
// rounded arithmetic is compared. Near-misses must NOT be merged — that
// would drop a genuinely distinct boundary corner and break Lemma 4's
// no-false-negative cover.
func identicalCorner(a, b Point) bool {
	//segdifflint:ignore floateq duplicate corners are bit-identical copies of one computation, not independently rounded values
	return a == b
}

// ExtractBoundaries applies the case analysis of Section 4.3.1 (Table 2 and
// the Appendix) to parallelogram p for both kinds: the result holds the
// Drop boundary, then the Jump boundary, each present unless its storage
// gate skips it (see BoundaryCorners).
func ExtractBoundaries(p Parallelogram, epsilon float64) ([]Boundary, error) {
	var out []Boundary
	for _, kind := range [...]Kind{Drop, Jump} {
		cs, n, err := BoundaryCorners(&p, epsilon, kind)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			out = append(out, Boundary{
				Kind: kind, Case: p.Case, Corners: slices.Clone(cs[:n]),
				TD: p.TD, TC: p.TC, TB: p.TB, TA: p.TA,
			})
		}
	}
	return out, nil
}

// BoundaryCorners returns the corners of p's stored boundary of one kind
// without allocating: it selects the necessary corner points of Table 2,
// applies the ε-shift of Lemma 4 (down for drops, up for jumps) and drops
// consecutive duplicates, leaving the n corners in cs[:n] in ascending Δt.
// n = 0 means the storage gate skips the boundary: it can never satisfy a
// drop (V < 0) or jump (V > 0) query.
func BoundaryCorners(p *Parallelogram, epsilon float64, kind Kind) (cs [3]Point, n int, err error) {
	if epsilon < 0 {
		return cs, 0, fmt.Errorf("feature: negative epsilon %v", epsilon)
	}
	if kind != Drop && kind != Jump {
		return cs, 0, fmt.Errorf("feature: unknown kind %v", kind)
	}
	drop := kind == Drop
	e := epsilon
	var sel [3]Point // the unshifted corners Table 2 selects
	m := 0
	switch p.Case {
	case Case1: // k_CD ≥ 0, k_AB ≤ 0
		switch {
		case drop && p.AC.Dv-e <= 0:
			sel, m = [3]Point{p.BC, p.AC}, 2
		case !drop && p.BD.Dv+e >= 0:
			sel, m = [3]Point{p.BC, p.BD}, 2
		}
	case Case2: // k_CD ≥ 0, k_AB ≥ k_CD
		switch {
		case drop:
			if p.BC.Dv-e <= 0 {
				sel, m = [3]Point{p.BC}, 1
			}
		case p.AC.Dv+e >= 0:
			sel, m = [3]Point{p.BC, p.AC, p.AD}, 3
		case p.AD.Dv+e >= 0:
			sel, m = [3]Point{p.AC, p.AD}, 2
		}
	case Case3: // k_CD ≥ 0, 0 < k_AB < k_CD — case 2 with AC ↔ BD
		switch {
		case drop:
			if p.BC.Dv-e <= 0 {
				sel, m = [3]Point{p.BC}, 1
			}
		case p.BD.Dv+e >= 0:
			sel, m = [3]Point{p.BC, p.BD, p.AD}, 3
		case p.AD.Dv+e >= 0:
			sel, m = [3]Point{p.BD, p.AD}, 2
		}
	case Case4: // k_CD < 0, k_AB ≥ 0
		switch {
		case drop && p.BD.Dv-e <= 0:
			sel, m = [3]Point{p.BC, p.BD}, 2
		case !drop && p.AC.Dv+e >= 0:
			sel, m = [3]Point{p.BC, p.AC}, 2
		}
	case Case5: // k_CD < 0, k_AB ≤ k_CD
		switch {
		case !drop:
			if p.BC.Dv+e >= 0 {
				sel, m = [3]Point{p.BC}, 1
			}
		case p.AC.Dv-e <= 0:
			sel, m = [3]Point{p.BC, p.AC, p.AD}, 3
		case p.AD.Dv-e <= 0:
			sel, m = [3]Point{p.AC, p.AD}, 2
		}
	case Case6: // k_CD < 0, k_CD < k_AB < 0 — case 5 with AC ↔ BD
		switch {
		case !drop:
			if p.BC.Dv+e >= 0 {
				sel, m = [3]Point{p.BC}, 1
			}
		case p.BD.Dv-e <= 0:
			sel, m = [3]Point{p.BC, p.BD, p.AD}, 3
		case p.AD.Dv-e <= 0:
			sel, m = [3]Point{p.BD, p.AD}, 2
		}
	default:
		return cs, 0, fmt.Errorf("feature: unknown case %v", p.Case)
	}
	d := -e
	if !drop {
		d = e
	}
	for _, c := range sel[:m] {
		sc := shift(c, d)
		// Degenerate pairs (zero-length CD) repeat a corner; the
		// duplicate adds nothing to point or line queries.
		if n > 0 && identicalCorner(cs[n-1], sc) {
			continue
		}
		cs[n] = sc
		n++
	}
	return cs, n, nil
}

// AllCornersBoundary returns the un-reduced alternative used by the A1
// ablation: the full perimeter walk BC→BD→AD→AC→BC (the first corner is
// repeated so the polyline's consecutive pairs cover all four parallelogram
// edges), ε-shifted for the given kind, with no storage gate. Storing the
// full perimeter supports the same point/line queries but costs more
// space — exactly the design choice Table 2 eliminates.
func AllCornersBoundary(p Parallelogram, epsilon float64, kind Kind) (Boundary, error) {
	if epsilon < 0 {
		return Boundary{}, fmt.Errorf("feature: negative epsilon %v", epsilon)
	}
	d := -epsilon
	if kind == Jump {
		d = epsilon
	}
	b := Boundary{Kind: kind, Case: p.Case, TD: p.TD, TC: p.TC, TB: p.TB, TA: p.TA}
	for _, c := range p.Corners() {
		b.Corners = append(b.Corners, shift(c, d))
	}
	b.Corners = append(b.Corners, b.Corners[0])
	return b, nil
}
