package feature

import (
	"math/rand"
	"testing"

	"segdiff/internal/segment"
)

// wantBoundary is one expected stored boundary: the kind plus the exact
// ε-shifted corner points in ascending-Δt order.
type wantBoundary struct {
	kind    Kind
	corners []Point
}

// TestExtractBoundariesTable2 drives the full corner case analysis of
// Table 2 through ExtractBoundaries: one sub-test per slope configuration,
// including the zero-slope and equal-slope boundary configurations that
// Classify routes to the lower-numbered case, the storage gates that skip
// boundaries no query of the kind can ever match, and the degenerate
// self-pair whose duplicate corners must collapse. Expected corners are
// hand-derived from the segment geometry (Δ_ij = value_i − value_j over
// t_i − t_j) plus the Lemma 4 shift: −ε for drops, +ε for jumps.
func TestExtractBoundariesTable2(t *testing.T) {
	const eps = 0.5
	tests := []struct {
		name     string
		cd, ab   segment.Segment
		wantCase Case
		want     []wantBoundary
	}{
		{
			// k_CD = 1 ≥ 0, k_AB = −1 ≤ 0.
			name:     "case1 rise then fall",
			cd:       segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 10},
			ab:       segment.Segment{Ts: 20, Vs: 5, Te: 30, Ve: -5},
			wantCase: Case1,
			want: []wantBoundary{
				{Drop, []Point{{10, -5 - eps}, {20, -15 - eps}}}, // BC, AC
				{Jump, []Point{{10, -5 + eps}, {20, 5 + eps}}},   // BC, BD
			},
		},
		{
			// Zero-slope boundary: k_CD = 0 with k_AB = 0 routes to case 1
			// (both gates hold at Δv = 0 because of the ε slack).
			name:     "case1 both flat (zero-slope boundary)",
			cd:       segment.Segment{Ts: 0, Vs: 5, Te: 10, Ve: 5},
			ab:       segment.Segment{Ts: 20, Vs: 5, Te: 30, Ve: 5},
			wantCase: Case1,
			want: []wantBoundary{
				{Drop, []Point{{10, -eps}, {20, -eps}}}, // BC, AC — gate: Δv_AC − ε ≤ 0
				{Jump, []Point{{10, eps}, {20, eps}}},   // BC, BD — gate: Δv_BD + ε ≥ 0
			},
		},
		{
			// k_CD = 0.5 ≥ 0, k_AB = 2 ≥ k_CD.
			name:     "case2 shallow then steep rise",
			cd:       segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 5},
			ab:       segment.Segment{Ts: 20, Vs: 0, Te: 30, Ve: 20},
			wantCase: Case2,
			want: []wantBoundary{
				{Drop, []Point{{10, -5 - eps}}},                                 // BC
				{Jump, []Point{{10, -5 + eps}, {20, 15 + eps}, {30, 20 + eps}}}, // BC, AC, AD
			},
		},
		{
			// Equal-slope boundary: k_AB = k_CD = 1 routes to case 2, and
			// the drop gate (Δv_BC − ε ≤ 0) fails: a monotone rise this
			// steep can never satisfy a drop query.
			name:     "case2 equal slopes, drop gated out",
			cd:       segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 10},
			ab:       segment.Segment{Ts: 20, Vs: 20, Te: 30, Ve: 30},
			wantCase: Case2,
			want: []wantBoundary{
				{Jump, []Point{{10, 10 + eps}, {20, 20 + eps}, {30, 30 + eps}}}, // BC, AC, AD
			},
		},
		{
			// k_CD = 2 ≥ 0, 0 < k_AB = 0.5 < k_CD — case 2 with AC ↔ BD.
			name:     "case3 steep then shallow rise",
			cd:       segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 20},
			ab:       segment.Segment{Ts: 20, Vs: 25, Te: 30, Ve: 30},
			wantCase: Case3,
			want: []wantBoundary{
				{Jump, []Point{{10, 5 + eps}, {20, 25 + eps}, {30, 30 + eps}}}, // BC, BD, AD
			},
		},
		{
			// k_CD = −1 < 0, k_AB = 0 ≥ 0 (zero-slope boundary of case 4).
			// The jump gate fails: Δv_AC + ε = −5 + 0.5 < 0, so this pair
			// can never satisfy any jump query and only the drop boundary
			// is stored.
			name:     "case4 fall then flat",
			cd:       segment.Segment{Ts: 0, Vs: 10, Te: 10, Ve: 0},
			ab:       segment.Segment{Ts: 20, Vs: -5, Te: 30, Ve: -5},
			wantCase: Case4,
			want: []wantBoundary{
				{Drop, []Point{{10, -5 - eps}, {20, -15 - eps}}}, // BC, BD
			},
		},
		{
			// k_CD = −1 < 0, k_AB = −2 ≤ k_CD; Δv_BC = 0, so the jump gate
			// holds exactly through the ε slack.
			name:     "case5 accelerating fall",
			cd:       segment.Segment{Ts: 0, Vs: 10, Te: 10, Ve: 0},
			ab:       segment.Segment{Ts: 20, Vs: 0, Te: 30, Ve: -20},
			wantCase: Case5,
			want: []wantBoundary{
				{Drop, []Point{{10, -eps}, {20, -20 - eps}, {30, -30 - eps}}}, // BC, AC, AD
				{Jump, []Point{{10, eps}}},                                    // BC
			},
		},
		{
			// Equal negative slopes route to case 5; a deep fall with the
			// later segment far below gates the jump boundary out
			// (Δv_BC + ε < 0).
			name:     "case5 equal slopes, jump gated out",
			cd:       segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: -10},
			ab:       segment.Segment{Ts: 20, Vs: -15, Te: 30, Ve: -25},
			wantCase: Case5,
			want: []wantBoundary{
				{Drop, []Point{{10, -5 - eps}, {20, -15 - eps}, {30, -25 - eps}}}, // BC, AC, AD
			},
		},
		{
			// k_CD = −2 < 0, k_CD < k_AB = −0.5 < 0 — case 5 with AC ↔ BD.
			name:     "case6 decelerating fall",
			cd:       segment.Segment{Ts: 0, Vs: 20, Te: 10, Ve: 0},
			ab:       segment.Segment{Ts: 20, Vs: 0, Te: 30, Ve: -5},
			wantCase: Case6,
			want: []wantBoundary{
				{Drop, []Point{{10, -eps}, {20, -20 - eps}, {30, -25 - eps}}}, // BC, BD, AD
				{Jump, []Point{{10, eps}}},                                    // BC
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewParallelogram(tc.cd, tc.ab)
			if err != nil {
				t.Fatal(err)
			}
			if p.Case != tc.wantCase {
				t.Fatalf("case = %v, want %v", p.Case, tc.wantCase)
			}
			bs, err := ExtractBoundaries(p, eps)
			if err != nil {
				t.Fatal(err)
			}
			checkBoundaries(t, bs, tc.want)
		})
	}
}

// TestExtractBoundariesSelfPair checks the degenerate within-segment
// parallelogram: the zero-length CD collapses pairs of corners onto each
// other and ExtractBoundaries must deduplicate them, never storing two
// bit-identical corner points.
func TestExtractBoundariesSelfPair(t *testing.T) {
	const eps = 0.5
	p, err := SelfPair(segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: -5})
	if err != nil {
		t.Fatal(err)
	}
	// k_CD is taken as k_AB = −0.5, routing to case 5 (k_AB ≤ k_CD).
	if p.Case != Case5 {
		t.Fatalf("case = %v, want %v", p.Case, Case5)
	}
	bs, err := ExtractBoundaries(p, eps)
	if err != nil {
		t.Fatal(err)
	}
	checkBoundaries(t, bs, []wantBoundary{
		// BC, AC, AD with AC == AD collapsing: two corners survive.
		{Drop, []Point{{0, -eps}, {10, -5 - eps}}},
		{Jump, []Point{{0, eps}}},
	})
}

func TestExtractBoundariesNegativeEpsilon(t *testing.T) {
	p, err := SelfPair(segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractBoundaries(p, -0.1); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// TestBoundaryCornersAllocatesNothing pins the corner selection the
// served scan runs once per refined pair to the stack, for every case and
// both kinds, and its rejection of a kind that is neither.
func TestBoundaryCornersAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[Case]bool{}
	for len(seen) < 6 {
		cd, ab := randomPair(rng)
		p, err := NewParallelogram(cd, ab)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Case] {
			continue
		}
		seen[p.Case] = true
		for _, kind := range []Kind{Drop, Jump} {
			if a := testing.AllocsPerRun(100, func() {
				if _, _, err := BoundaryCorners(&p, 0.2, kind); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Fatalf("%v %v: %v allocations per call, want 0", p.Case, kind, a)
			}
		}
		if _, _, err := BoundaryCorners(&p, 0.2, Kind(7)); err == nil {
			t.Fatal("unknown kind accepted")
		}
	}
}

func checkBoundaries(t *testing.T, got []Boundary, want []wantBoundary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d boundaries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		b := got[i]
		if b.Kind != w.kind {
			t.Errorf("boundary %d: kind = %v, want %v", i, b.Kind, w.kind)
			continue
		}
		if len(b.Corners) != len(w.corners) {
			t.Errorf("%v boundary: got %d corners %v, want %d %v",
				w.kind, len(b.Corners), b.Corners, len(w.corners), w.corners)
			continue
		}
		for j, c := range w.corners {
			if b.Corners[j] != c {
				t.Errorf("%v boundary corner %d: got (%d, %v), want (%d, %v)",
					w.kind, j, b.Corners[j].Dt, b.Corners[j].Dv, c.Dt, c.Dv)
			}
		}
	}
}
