package core

import (
	"testing"

	"segdiff/internal/timeseries"
)

// Mirror symmetry: searching for drops in v(t) must return exactly the
// periods of searching for jumps in −v(t). The whole pipeline —
// segmentation, case classification (cases 1↔4, 2↔5, 3↔6), ε-shift
// direction, gates, and the point/line queries — must mirror cleanly.
func TestDropJumpMirrorSymmetry(t *testing.T) {
	for _, seed := range []int64{3, 14, 15} {
		series := randomSeries(seed, 350)
		mirrored := series.Map(func(p timeseries.Point) float64 { return -p.V })

		a := memStore(t, Options{Epsilon: 0.3, Window: 4000})
		ingest(t, a, series)
		b := memStore(t, Options{Epsilon: 0.3, Window: 4000})
		ingest(t, b, mirrored)

		for _, q := range []struct {
			T int64
			V float64
		}{{600, -2}, {2000, -4}, {4000, -1}} {
			drops, err := a.SearchDrops(q.T, q.V)
			if err != nil {
				t.Fatal(err)
			}
			jumps, err := b.SearchJumps(q.T, -q.V)
			if err != nil {
				t.Fatal(err)
			}
			if len(drops) != len(jumps) {
				t.Fatalf("seed=%d T=%d V=%v: %d drops vs %d mirrored jumps",
					seed, q.T, q.V, len(drops), len(jumps))
			}
			for i := range drops {
				if drops[i] != jumps[i] {
					t.Fatalf("seed=%d: match %d differs: drop %+v vs jump %+v",
						seed, i, drops[i], jumps[i])
				}
			}
		}
	}
}

// Time-shift invariance: shifting the whole series in time shifts every
// match by the same amount and changes nothing else.
func TestTimeShiftInvariance(t *testing.T) {
	series := randomSeries(21, 300)
	const shift = int64(1_000_000)
	shifted := &timeseries.Series{}
	for _, p := range series.Points() {
		if err := shifted.Append(timeseries.Point{T: p.T + shift, V: p.V}); err != nil {
			t.Fatal(err)
		}
	}
	a := memStore(t, Options{Epsilon: 0.25, Window: 3000})
	ingest(t, a, series)
	b := memStore(t, Options{Epsilon: 0.25, Window: 3000})
	ingest(t, b, shifted)

	ma, err := a.SearchDrops(1500, -2)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.SearchDrops(1500, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma) != len(mb) {
		t.Fatalf("match counts differ under time shift: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		want := ma[i]
		want.From.Start += shift
		want.From.End += shift
		want.To.Start += shift
		want.To.End += shift
		if mb[i] != want {
			t.Fatalf("match %d: got %+v, want shifted %+v", i, mb[i], want)
		}
	}
}

// Value-offset invariance: adding a constant to the series must not change
// any match (searches are about relative change only — the paper's key
// distinction from timebox queries).
func TestValueOffsetInvariance(t *testing.T) {
	series := randomSeries(31, 300)
	offset := series.Map(func(p timeseries.Point) float64 { return p.V + 1000 })

	a := memStore(t, Options{Epsilon: 0.25, Window: 3000})
	ingest(t, a, series)
	b := memStore(t, Options{Epsilon: 0.25, Window: 3000})
	ingest(t, b, offset)

	ma, err := a.SearchDrops(1500, -2)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.SearchDrops(1500, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma) != len(mb) {
		t.Fatalf("match counts differ under value offset: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("match %d differs under value offset", i)
		}
	}
}
