package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"segdiff/internal/segment"
)

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion(Drop, 3600, -3); err != nil {
		t.Fatalf("valid drop region rejected: %v", err)
	}
	if _, err := NewRegion(Jump, 3600, 3); err != nil {
		t.Fatalf("valid jump region rejected: %v", err)
	}
	bad := []struct {
		kind Kind
		T    int64
		V    float64
	}{
		{Drop, 0, -3},
		{Drop, -5, -3},
		{Drop, 100, 3},
		{Drop, 100, 0},
		{Jump, 100, -3},
		{Jump, 100, 0},
		{Drop, 100, math.NaN()},
		{Kind(9), 100, -3},
	}
	for _, tc := range bad {
		if _, err := NewRegion(tc.kind, tc.T, tc.V); err == nil {
			t.Errorf("NewRegion(%v, %d, %v) accepted", tc.kind, tc.T, tc.V)
		}
	}
}

func TestContainsPoint(t *testing.T) {
	r, _ := NewRegion(Drop, 100, -3)
	if !r.ContainsPoint(Point{Dt: 50, Dv: -4}) {
		t.Error("interior drop point rejected")
	}
	if !r.ContainsPoint(Point{Dt: 100, Dv: -3}) {
		t.Error("boundary drop point rejected")
	}
	if !r.ContainsPoint(Point{Dt: 0, Dv: -5}) {
		t.Error("Δt=0 corner rejected (paper's point query has no Δt>0 clause)")
	}
	if r.ContainsPoint(Point{Dt: 101, Dv: -5}) {
		t.Error("Δt beyond T accepted")
	}
	if r.ContainsPoint(Point{Dt: 50, Dv: -2.9}) {
		t.Error("Δv above V accepted")
	}
	j, _ := NewRegion(Jump, 100, 3)
	if !j.ContainsPoint(Point{Dt: 50, Dv: 4}) || j.ContainsPoint(Point{Dt: 50, Dv: 2.9}) {
		t.Error("jump point query wrong")
	}
}

// CrossesEdge against a brute-force sampling of the edge.
func TestCrossesEdgeAgainstSampling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := Drop
		v := -(rng.Float64()*5 + 0.1)
		if seed%2 == 0 {
			kind = Jump
			v = -v
		}
		r, err := NewRegion(kind, 1+rng.Int63n(200), v)
		if err != nil {
			return false
		}
		p := Point{Dt: rng.Int63n(300), Dv: rng.NormFloat64() * 6}
		q := Point{Dt: p.Dt + 1 + rng.Int63n(300), Dv: rng.NormFloat64() * 6}
		// Skip configurations where an endpoint already satisfies the
		// point query: CrossesEdge only covers the neither-endpoint case.
		if r.ContainsPoint(p) || r.ContainsPoint(q) {
			return true
		}
		got := r.CrossesEdge(p, q)
		// Brute force: sample the edge at fine parameter resolution.
		brute := false
		for i := 0; i <= 5000; i++ {
			l := float64(i) / 5000
			dt := float64(p.Dt) + l*float64(q.Dt-p.Dt)
			dv := p.Dv + l*(q.Dv-p.Dv)
			if dt < 0 || dt > float64(r.T) {
				continue
			}
			if kind == Drop && dv <= r.V {
				brute = true
				break
			}
			if kind == Jump && dv >= r.V {
				brute = true
				break
			}
		}
		if got != brute {
			// Resolve near-boundary sampling noise: accept if the exact
			// crossing value at T is within a hair of V.
			if q.Dt != p.Dt {
				atT := p.Dv + (q.Dv-p.Dv)*float64(r.T-p.Dt)/float64(q.Dt-p.Dt)
				if math.Abs(atT-r.V) < 1e-6 {
					return true
				}
			}
			t.Logf("seed=%d kind=%v T=%d V=%v p=%v q=%v got=%v brute=%v", seed, kind, r.T, r.V, p, q, got, brute)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestCrossesEdgeDegenerate(t *testing.T) {
	r, _ := NewRegion(Drop, 100, -3)
	p := Point{Dt: 50, Dv: -1}
	if r.CrossesEdge(p, p) {
		t.Error("degenerate edge crossed")
	}
	// Order of endpoints must not matter.
	a := Point{Dt: 80, Dv: -1}
	b := Point{Dt: 120, Dv: -10}
	if r.CrossesEdge(a, b) != r.CrossesEdge(b, a) {
		t.Error("edge crossing not symmetric in argument order")
	}
}

// The central Table-2 property: for random segment pairs, detection via
// the extracted (reduced, ε-shifted) boundary corners agrees with exact
// intersection between the query region and the ε-shifted full
// parallelogram. The agreement is exact in geometry, not in floating
// point: where the region's edge meets a clipped boundary edge at V
// itself, the line query and the polygon clip can round to opposite
// sides (internal/scan's FuzzSearch seed rounding-tie-at-T is one such
// tie). These random pairs never land on a tie, so this test requires
// equality, while FuzzSearch judges with a margin of 10⁻⁹ of the data's
// scale.
func TestTable2BoundaryEquivalence(t *testing.T) {
	checkOne := func(rng *rand.Rand, eps float64, self bool) bool {
		var p Parallelogram
		var err error
		if self {
			_, ab := randomPair(rng)
			p, err = SelfPair(ab)
		} else {
			cd, ab := randomPair(rng)
			p, err = NewParallelogram(cd, ab)
		}
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := ExtractBoundaries(p, eps)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			kind := Drop
			v := -(rng.Float64()*8 + 0.01)
			shiftDir := -eps
			if trial%2 == 1 {
				kind = Jump
				v = -v
				shiftDir = eps
			}
			r, err := NewRegion(kind, 1+rng.Int63n(600), v)
			if err != nil {
				t.Fatal(err)
			}
			want := r.IntersectsParallelogram(p, shiftDir)
			got := false
			for _, b := range bounds {
				if r.MatchesBoundary(b) {
					got = true
					break
				}
			}
			if got != want {
				t.Logf("case=%v kind=%v T=%d V=%v eps=%v self=%v pgram=%+v bounds=%+v got=%v want=%v",
					p.Case, kind, r.T, r.V, eps, self, p, bounds, got, want)
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(12345))
	for i := 0; i < 600; i++ {
		eps := []float64{0, 0.1, 0.5}[i%3]
		if !checkOne(rng, eps, i%5 == 4) {
			t.Fatalf("boundary/exact mismatch at iteration %d", i)
		}
	}
}

// The un-reduced 4-corner ablation must also be exactly equivalent to the
// geometric intersection.
func TestAllCornersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < 400; i++ {
		cd, ab := randomPair(rng)
		p, err := NewParallelogram(cd, ab)
		if err != nil {
			t.Fatal(err)
		}
		eps := []float64{0, 0.2}[i%2]
		kind := Drop
		v := -(rng.Float64()*8 + 0.01)
		shiftDir := -eps
		if i%2 == 1 {
			kind = Jump
			v = -v
			shiftDir = eps
		}
		b, err := AllCornersBoundary(p, eps, kind)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRegion(kind, 1+rng.Int63n(600), v)
		if err != nil {
			t.Fatal(err)
		}
		want := r.IntersectsParallelogram(p, shiftDir)
		if got := r.MatchesBoundary(b); got != want {
			t.Fatalf("iter %d: all-corners got %v want %v (case %v)", i, got, want, p.Case)
		}
	}
}

func TestExtractBoundariesValidation(t *testing.T) {
	cd := segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 1}
	ab := segment.Segment{Ts: 10, Vs: 1, Te: 20, Ve: 0}
	p, err := NewParallelogram(cd, ab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractBoundaries(p, -0.1); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	if _, err := AllCornersBoundary(p, -0.1, Drop); err == nil {
		t.Fatal("negative epsilon accepted by AllCornersBoundary")
	}
	bad := p
	bad.Case = Case(42)
	if _, err := ExtractBoundaries(bad, 0.1); err == nil {
		t.Fatal("unknown case accepted")
	}
}

// Corner counts must follow Table 2: at most 3 stored per kind, and the
// storage gates must drop boundaries that can never match. Note the pairs
// here are separated by a gap with a value step across it: for *adjacent*
// segments Δv_BC = 0 and the paper's gate correctly keeps a degenerate
// (Δt=0, −ε) drop corner even on a rising pair.
func TestExtractBoundariesGates(t *testing.T) {
	// Steeply rising pair far above zero: no drop boundary should be kept.
	cd := segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 5}
	ab := segment.Segment{Ts: 12, Vs: 7, Te: 20, Ve: 12}
	p, err := NewParallelogram(cd, ab)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := ExtractBoundaries(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if b.Kind == Drop {
			t.Fatalf("drop boundary stored for strictly rising pair: %+v", b)
		}
		if len(b.Corners) == 0 || len(b.Corners) > 3 {
			t.Fatalf("corner count %d outside 1..3", len(b.Corners))
		}
	}
	// Mirror: steeply falling pair — no jump boundary.
	cd2 := segment.Segment{Ts: 0, Vs: 12, Te: 10, Ve: 7}
	ab2 := segment.Segment{Ts: 12, Vs: 5, Te: 20, Ve: 0}
	p2, err := NewParallelogram(cd2, ab2)
	if err != nil {
		t.Fatal(err)
	}
	bs2, err := ExtractBoundaries(p2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs2 {
		if b.Kind == Jump {
			t.Fatalf("jump boundary stored for strictly falling pair: %+v", b)
		}
	}
}

// ε-shift direction: drop corners move down, jump corners move up.
func TestExtractBoundariesShiftDirection(t *testing.T) {
	cd := segment.Segment{Ts: 0, Vs: 0, Te: 10, Ve: 2}
	ab := segment.Segment{Ts: 15, Vs: 1, Te: 25, Ve: -2}
	p, err := NewParallelogram(cd, ab) // case 1: both kinds stored
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.25
	withShift, err := ExtractBoundaries(p, eps)
	if err != nil {
		t.Fatal(err)
	}
	noShift, err := ExtractBoundaries(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(withShift) != 2 || len(noShift) != 2 {
		t.Fatalf("expected drop+jump boundaries, got %d and %d", len(withShift), len(noShift))
	}
	for i, b := range withShift {
		for j, c := range b.Corners {
			want := noShift[i].Corners[j].Dv - eps
			if b.Kind == Jump {
				want = noShift[i].Corners[j].Dv + eps
			}
			if math.Abs(c.Dv-want) > 1e-12 {
				t.Fatalf("corner %d of %v boundary shifted wrong: %v want %v", j, b.Kind, c.Dv, want)
			}
			if c.Dt != noShift[i].Corners[j].Dt {
				t.Fatalf("corner %d Δt changed by shift", j)
			}
		}
	}
}

// Corners within a boundary must be ordered by ascending Δt, as the
// line-query storage layout requires.
func TestExtractedCornersOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		cd, ab := randomPair(rng)
		p, err := NewParallelogram(cd, ab)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := ExtractBoundaries(p, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			for j := 1; j < len(b.Corners); j++ {
				if b.Corners[j].Dt < b.Corners[j-1].Dt {
					t.Fatalf("corners out of Δt order: %+v (case %v)", b, p.Case)
				}
			}
		}
	}
}
