package scan

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"segdiff/internal/extract"
	"segdiff/internal/feature"
	"segdiff/internal/segment"
)

// randomSegments builds a contiguous approximation with occasional gaps
// and a spread of durations, long ones included so that Algorithm 1's
// truncation of CD at t_B − w happens often.
func randomSegments(seed int64, n int) []segment.Segment {
	rng := rand.New(rand.NewSource(seed))
	segs := make([]segment.Segment, 0, n)
	t, v := int64(1000), 20.0
	for i := 0; i < n; i++ {
		if rng.Intn(25) == 0 {
			t += 1 + rng.Int63n(900) // sensor gap
			v += rng.NormFloat64()
		}
		d := 30 + rng.Int63n(600)
		if rng.Intn(6) == 0 {
			d += rng.Int63n(4000) // long segment
		}
		next := v + rng.NormFloat64()*1.5
		if rng.Intn(10) == 0 {
			next += rng.NormFloat64() * 6
		}
		segs = append(segs, segment.Segment{Ts: t, Vs: v, Te: t + d, Ve: next})
		t, v = t+d, next
	}
	return segs
}

// extracted is the independent judge: every boundary Algorithm 1 stores
// for segs, from the extractor itself.
func extracted(t *testing.T, segs []segment.Segment, eps float64, w int64) []feature.Boundary {
	t.Helper()
	var out []feature.Boundary
	x, err := extract.New(eps, w, func(b feature.Boundary) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range segs {
		if err := x.Push(g); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// matching filters the stored boundaries with the point and line queries,
// the way a search over stored features does, sorted like Search.
func matching(bs []feature.Boundary, r feature.Region, after int64) []Match {
	out := []Match{}
	for _, b := range bs {
		if b.TA > after && r.MatchesBoundary(b) {
			out = append(out, Match{From: Interval{Start: b.TD, End: b.TC}, To: Interval{Start: b.TB, End: b.TA}})
		}
	}
	slices.SortFunc(out, compareTBTD)
	return out
}

// compareTBTD orders matches by (t_B, t_D), the order Search returns.
func compareTBTD(a, b Match) int {
	if c := cmp.Compare(a.To.Start, b.To.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.From.Start, b.From.Start)
}

// search runs one search over a mirror derived from segs at once.
func search(segs []segment.Segment, r feature.Region, eps float64, w, after int64) ([]Match, error) {
	return NewMirror(segs, w).Search(context.Background(), r, eps, after)
}

// TestSearchEqualsStoredBoundaries checks Search against the boundaries
// the extractor stores, over random approximations, both kinds, a grid of
// (T, V) up to T = w, and a retention cutoff. The spans include T below
// w/64 (the narrowest bound), T = w/4 + 1 (the first span above w/4 is
// w/2) and T = w.
func TestSearchEqualsStoredBoundaries(t *testing.T) {
	const eps, w = 0.2, 3600
	truncated, found := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		segs := randomSegments(seed, 400)
		stored := extracted(t, segs, eps, w)
		for _, b := range stored {
			if b.TD != b.TB && b.TD == b.TB-w {
				truncated++
			}
		}
		for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
			for _, T := range []int64{30, 60, 900, w/4 + 1, w} {
				for _, mag := range []float64{0.1, 1, 3, 8} {
					V := mag
					if kind == feature.Drop {
						V = -mag
					}
					r, err := feature.NewRegion(kind, T, V)
					if err != nil {
						t.Fatal(err)
					}
					for _, after := range []int64{math.MinInt64, segs[len(segs)/2].Ts + 1} {
						got, err := search(segs, r, eps, w, after)
						if err != nil {
							t.Fatal(err)
						}
						want := matching(stored, r, after)
						if !reflect.DeepEqual(got, want) {
							i := 0
							for i < min(len(got), len(want)) && got[i] == want[i] {
								i++
							}
							t.Fatalf("seed %d %v T=%d V=%v after=%d: scan found %d matches, stored boundaries %d; first difference at %d",
								seed, kind, T, V, after, len(got), len(want), i)
						}
						found += len(got)
					}
				}
			}
		}
	}
	if truncated == 0 || found == 0 {
		t.Fatalf("vacuous comparison: %d truncated pairs stored, %d matches found", truncated, found)
	}
}

// TestSearchTruncatesAtWindowStart pins a pair whose CD Algorithm 1
// truncates: CD spans the window start t_B − w = 500, so the stored pair
// starts there (t_D = 500), not at CD's own start.
func TestSearchTruncatesAtWindowStart(t *testing.T) {
	const eps, w = 0.2, 1000
	segs := []segment.Segment{
		{Ts: 0, Vs: 10, Te: 1000, Ve: 0},   // CD: falls 10 over 1000 s
		{Ts: 1500, Vs: 0, Te: 1600, Ve: 0}, // AB after a gap
	}
	r, err := feature.NewRegion(feature.Drop, w, -4)
	if err != nil {
		t.Fatal(err)
	}
	// CD's own drop is not reported as an end segment.
	const after = 1000
	got, err := search(segs, r, eps, w, after)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{From: Interval{Start: 500, End: 1000}, To: Interval{Start: 1500, End: 1600}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan %v, want %v", got, want)
	}
	if stored := matching(extracted(t, segs, eps, w), r, after); !reflect.DeepEqual(got, stored) {
		t.Fatalf("scan %v, stored boundaries %v", got, stored)
	}
}

// TestSearchSkipBoundKeepsEpsilon pins the ε in the skip bound: every
// corner of the only pair sits exactly ε below its unshifted Δv, so a
// bound without ε would skip an end segment whose shifted corner meets V.
func TestSearchSkipBoundKeepsEpsilon(t *testing.T) {
	const eps, w = 0.5, 1000
	segs := []segment.Segment{
		{Ts: 0, Vs: 3, Te: 100, Ve: 3},
		{Ts: 100, Vs: 2, Te: 200, Ve: 2}, // Δv −1 across the pair, −1.5 shifted
	}
	r, err := feature.NewRegion(feature.Drop, 500, -1.3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(segs, r, eps, w, math.MinInt64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (Match{From: Interval{Start: 0, End: 100}, To: Interval{Start: 100, End: 200}}) {
		t.Fatalf("got %v, want the one pair within ε of V", got)
	}
}

// TestSearchSkipBoundKeepsTruncSlack pins truncSlack: CD spans 2^57 s, so
// its value interpolated at the window start t_B − w rounds above
// max(v_D, v_C), and V is the truncated pair's lowest corner within T. A
// bound without the slack would skip the end segment and lose the pair.
func TestSearchSkipBoundKeepsTruncSlack(t *testing.T) {
	const eps, w = 0.2, 22
	segs := []segment.Segment{
		{Ts: 0, Vs: -93.8, Te: 144115188075856204, Ve: 26.6},
		{Ts: 144115188075856204, Vs: -22.2, Te: 144115188075856247, Ve: 88},
	}
	cd, ab := segs[0], segs[1]
	if v := cd.Value(ab.Ts - w); v <= max(cd.Vs, cd.Ve) {
		t.Fatalf("the truncated CD starts at %v, not above max(v_D, v_C) = %v", v, max(cd.Vs, cd.Ve))
	}
	stored := extracted(t, segs, eps, w)
	V := 0.0
	for _, b := range stored {
		if b.Kind == feature.Drop && b.TD == ab.Ts-w {
			for _, c := range b.Corners {
				if c.Dt <= w {
					V = min(V, c.Dv)
				}
			}
		}
	}
	if unwidened := min(ab.Vs, ab.Ve) - max(ab.Vs, cd.Vs, cd.Ve) - eps; !(unwidened > V) {
		t.Fatalf("vacuous: the bound without slack, %v, does not exceed V = %v", unwidened, V)
	}
	r, err := feature.NewRegion(feature.Drop, w, V)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(segs, r, eps, w, math.MinInt64)
	if err != nil {
		t.Fatal(err)
	}
	if want := matching(stored, r, math.MinInt64); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("scan %v, stored boundaries %v", got, want)
	}
}

func TestSearchContext(t *testing.T) {
	m := NewMirror(randomSegments(3, 3*checkEvery), 3600)
	r, _ := feature.NewRegion(feature.Drop, 600, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Search(ctx, r, 0.2, math.MinInt64); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
	got, err := NewMirror(nil, 3600).Search(context.Background(), r, 0.2, math.MinInt64)
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty approximation: %v, %v", got, err)
	}
}

// TestSearchOrder checks that Search emits its answer in strictly
// ascending (t_B, t_D) without sorting it: over random approximations
// with negative timestamps, both kinds and every span, each match must
// follow the one before, and end segments must hold several matches
// often enough that the order within one shows.
func TestSearchOrder(t *testing.T) {
	const eps, w = 0.2, 3600
	shared := 0
	for seed := int64(1); seed <= 4; seed++ {
		segs := randomSegments(seed, 1500)
		for i := range segs {
			segs[i].Ts -= 1 << 50
			segs[i].Te -= 1 << 50
		}
		m := NewMirror(segs, w)
		for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
			for _, T := range []int64{w / 100, w / 4, w} {
				for _, mag := range []float64{0.5, 3} {
					V := mag
					if kind == feature.Drop {
						V = -mag
					}
					r, err := feature.NewRegion(kind, T, V)
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.Search(context.Background(), r, eps, math.MinInt64)
					if err != nil {
						t.Fatal(err)
					}
					for i := 1; i < len(got); i++ {
						if compareTBTD(got[i-1], got[i]) >= 0 {
							t.Fatalf("seed %d %v T=%d V=%v: match %d of %d, %+v, does not follow %+v in (t_B, t_D) order",
								seed, kind, T, V, i, len(got), got[i], got[i-1])
						}
						if got[i].To.Start == got[i-1].To.Start {
							shared++
						}
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("vacuous order check: no end segment with two matches")
	}
}

// TestLevel pins the span a search reads: the smallest kept span at
// least T.
func TestLevel(t *testing.T) {
	const w = 28800
	for _, c := range []struct {
		T    int64
		want int
	}{
		{w, 0}, {w/2 + 1, 0}, {w / 2, 1}, {w/4 + 1, 1}, {w / 4, 2},
		{w / 64, 6}, {w/64 - 1, 6}, {1, 6},
	} {
		if got := level(c.T, w); got != c.want || w>>got < c.T {
			t.Errorf("level(%d, %d) = %d, want %d", c.T, w, got, c.want)
		}
	}
	if got := level(1, 3); got != 1 {
		t.Errorf("level(1, 3) = %d, want 1: spans 3 and 1 only", got)
	}
}

// TestMirrorBounds checks every stored bound against its definition,
// computed pair by pair: for each end segment and span, the lowest
// drop-oriented Δv bound over the self pair and every CD ending within
// the span.
func TestMirrorBounds(t *testing.T) {
	const w = 3600
	for seed := int64(1); seed <= 3; seed++ {
		segs := randomSegments(seed, 300)
		m := NewMirror(segs, w)
		for kind, bs := range map[feature.Kind]*[levels][]float64{feature.Drop: &m.drop, feature.Jump: &m.jump} {
			sign := 1.0
			if kind == feature.Jump {
				sign = -1
			}
			for k := range bs {
				if len(bs[k]) != len(segs) {
					t.Fatalf("seed %d %v span w>>%d: %d bounds for %d segments", seed, kind, k, len(bs[k]), len(segs))
				}
				for j, ab := range segs {
					start := sign * ab.Vs
					for _, cd := range segs[:j] {
						if cd.Te >= ab.Ts-w>>k {
							slack := truncSlack * (math.Abs(cd.Vs) + math.Abs(cd.Ve))
							start = max(start, max(sign*cd.Vs, sign*cd.Ve)+slack)
						}
					}
					if want := min(sign*ab.Vs, sign*ab.Ve) - start; bs[k][j] != want {
						t.Fatalf("seed %d %v span w>>%d, end segment %d: bound %v, want %v", seed, kind, k, j, bs[k][j], want)
					}
				}
			}
		}
	}
}

// TestMirrorExtendEqualsMount checks that a mirror extended batch by
// batch, in random batch sizes from one segment to a few windows' worth,
// holds exactly the bounds of a mirror derived at once from the same
// segments, and that every mirror along the way still does.
func TestMirrorExtendEqualsMount(t *testing.T) {
	const w = 3600
	rng := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 4; seed++ {
		segs := randomSegments(seed, 600)
		var chain []*Mirror
		m := NewMirror(nil, w)
		for n := 0; n < len(segs); {
			step := min(len(segs)-n, 1+rng.Intn([]int{1, 4, 40}[rng.Intn(3)]))
			m = m.Extend(segs[n : n+step])
			n += step
			chain = append(chain, m)
		}
		for _, m := range chain {
			if at := NewMirror(m.Segments(), w); !reflect.DeepEqual(m, at) {
				t.Fatalf("seed %d: the mirror extended to %d segments differs from one derived at once", seed, len(m.Segments()))
			}
		}
	}
}

// TestRefineAllocatesNothing pins the per-pair cost of the pass: refining
// a pair selects and tests its corners on the stack.
func TestRefineAllocatesNothing(t *testing.T) {
	p, err := feature.NewParallelogram(
		segment.Segment{Ts: 0, Vs: 10, Te: 100, Ve: 10},
		segment.Segment{Ts: 100, Vs: 0, Te: 200, Ve: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := feature.NewRegion(feature.Drop, 3600, -5)
	out := make([]Match, 0, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if out, err = refine(out[:0], &p, r, 0.2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(out) != 1 {
		t.Fatalf("refine allocated %v times per pair and found %d matches, want 0 and 1", allocs, len(out))
	}
}

// broadSearch is a drop search with T = w over a mirror of 20 000
// segments that refines a few hundred thousand pairs.
func broadSearch() (*Mirror, feature.Region, float64) {
	const w = 8 * 3600
	r, _ := feature.NewRegion(feature.Drop, w, -2)
	return NewMirror(randomSegments(1, 20000), w), r, 0.2
}

// TestSearchBroadAllocations checks that a broad search allocates its
// exact-size result and nothing else: the pass's output buffer comes from
// the pool. The pool caches buffers per P, so a goroutine that moves
// between searches misses it once; the cheapest of a few searches is
// judged. The collector is off while they run: after each cycle the
// first use of a sync.Pool allocates its per-P array again, and searches
// that each leave 14 MB of garbage would start a cycle during most of
// them.
func TestSearchBroadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	m, r, eps := broadSearch()
	search := func() int {
		got, err := m.Search(context.Background(), r, eps, math.MinInt64)
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	n := search() // fills the pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		search()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	const matchBytes = 32 // four int64s
	if limit := uint64(1.2*float64(matchBytes*n)) + 4<<10; n < 100_000 || bytes > limit || allocs > 2 {
		t.Fatalf("broad search: %d matches in %d bytes and %d allocations, want at least 100000 in at most %d bytes and 2 allocations",
			n, bytes, allocs, limit)
	}
	t.Logf("%d matches, %d bytes (%.1f per match), %d allocations", n, bytes, float64(bytes)/float64(n), allocs)
}

func BenchmarkSearch(b *testing.B) {
	m := NewMirror(randomSegments(1, 20000), 8*3600)
	r, _ := feature.NewRegion(feature.Drop, 3600, -4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Search(context.Background(), r, 0.2, math.MinInt64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBroad(b *testing.B) {
	m, r, eps := broadSearch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Search(context.Background(), r, eps, math.MinInt64); err != nil {
			b.Fatal(err)
		}
	}
}
