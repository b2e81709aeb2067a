package scan

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
	slices.SortFunc(out, compareTDTB)
	return out
}

// compareTDTB orders matches by (t_D, t_B), the order Search returns.
func compareTDTB(a, b Match) int {
	if c := cmp.Compare(a.From.Start, b.From.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.To.Start, b.To.Start)
}

// TestSearchEqualsStoredBoundaries checks Search against the boundaries
// the extractor stores, over random approximations, both kinds, a grid of
// (T, V) up to T = w, and a retention cutoff.
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
			for _, T := range []int64{60, 900, w} {
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
						got, err := Search(context.Background(), segs, r, eps, w, after)
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
	got, err := Search(context.Background(), segs, r, eps, w, after)
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
	got, err := Search(context.Background(), segs, r, eps, w, math.MinInt64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (Match{From: Interval{Start: 0, End: 100}, To: Interval{Start: 100, End: 200}}) {
		t.Fatalf("got %v, want the one pair within ε of V", got)
	}
}

func TestSearchContext(t *testing.T) {
	segs := randomSegments(3, 3*checkEvery)
	r, _ := feature.NewRegion(feature.Drop, 600, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, segs, r, 0.2, 3600, math.MinInt64); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
	got, err := Search(context.Background(), nil, r, 0.2, 3600, math.MinInt64)
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty approximation: %v, %v", got, err)
	}
}

// TestSearchOrder judges the radix sort: over random approximations with
// negative timestamps and a gap that makes TD − min need five 11-bit
// digits, Search's output must equal a (TD, TB) comparison sort of the
// same pairs, and TDs must tie across end segments often enough that an
// unstable sort would show.
func TestSearchOrder(t *testing.T) {
	const eps, w = 0.2, 3600
	ties := 0
	for seed := int64(1); seed <= 4; seed++ {
		segs := randomSegments(seed, 1500)
		for i := range segs {
			d := int64(-1) << 50
			if i >= len(segs)/2 {
				d += 1 << 45
			}
			segs[i].Ts += d
			segs[i].Te += d
		}
		for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
			for _, mag := range []float64{0.5, 3} {
				V := mag
				if kind == feature.Drop {
					V = -mag
				}
				r, err := feature.NewRegion(kind, w, V)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Search(context.Background(), segs, r, eps, w, math.MinInt64)
				if err != nil {
					t.Fatal(err)
				}
				want := slices.Clone(got)
				slices.SortFunc(want, compareTDTB)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d %v V=%v: match %d of %d is %+v, the (TD, TB) order has %+v", seed, kind, V, i, len(got), got[i], want[i])
					}
					if i > 0 && got[i].From.Start == got[i-1].From.Start {
						ties++
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("vacuous order check: no TD ties across end segments")
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
		if out, err = refine(out[:0], p, r, 0.2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(out) != 1 {
		t.Fatalf("refine allocated %v times per pair and found %d matches, want 0 and 1", allocs, len(out))
	}
}

// broadSearch is a drop search with T = w over 20 000 segments that
// refines a few hundred thousand pairs.
func broadSearch() ([]segment.Segment, feature.Region, float64, int64) {
	const w = 8 * 3600
	r, _ := feature.NewRegion(feature.Drop, w, -2)
	return randomSegments(1, 20000), r, 0.2, w
}

// TestSearchBroadAllocations checks that a broad search allocates its
// exact-size result and nothing else: the pass's output, the sort's
// scratch and the deque come from the pool. The pool caches buffers per
// P, so a goroutine that moves between searches misses it once; the
// cheapest of a few searches is judged.
func TestSearchBroadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	segs, r, eps, w := broadSearch()
	search := func() int {
		got, err := Search(context.Background(), segs, r, eps, w, math.MinInt64)
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	n := search() // fills the pool
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
	segs := randomSegments(1, 20000)
	r, _ := feature.NewRegion(feature.Drop, 3600, -4)
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), segs, r, 0.2, 8*3600, math.MinInt64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBroad(b *testing.B) {
	segs, r, eps, w := broadSearch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), segs, r, eps, w, math.MinInt64); err != nil {
			b.Fatal(err)
		}
	}
}
