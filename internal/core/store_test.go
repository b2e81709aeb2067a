package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"segdiff/internal/feature"
	"segdiff/internal/naive"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/synth"
	"segdiff/internal/timeseries"
)

// randomSeries builds a random-walk series with occasional sharp moves so
// drops and jumps of interesting sizes exist.
func randomSeries(seed int64, n int) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	s := &timeseries.Series{}
	v := 0.0
	tt := int64(0)
	for i := 0; i < n; i++ {
		tt += 20 + rng.Int63n(60)
		step := rng.NormFloat64() * 0.5
		if rng.Intn(12) == 0 {
			step += rng.NormFloat64() * 4 // occasional sharp move
		}
		v += step
		if err := s.Append(timeseries.Point{T: tt, V: v}); err != nil {
			panic(err)
		}
	}
	return s
}

func memStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := OpenMemory(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ingest(t *testing.T, st *Store, s *timeseries.Series) {
	t.Helper()
	if err := st.AppendSeries(s); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}

func covered(ms []Match, t1, t2 int64) bool {
	for _, m := range ms {
		if m.From.Contains(t1) && m.To.Contains(t2) {
			return true
		}
	}
	return false
}

// maxAbsSlope of the stored PLA, used to bound the slack of integer-grid
// verification of returned matches.
func maxAbsSlope(t *testing.T, st *Store) float64 {
	t.Helper()
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	m := 0.0
	for _, g := range segs {
		if a := math.Abs(g.Slope()); a > m {
			m = a
		}
	}
	return m
}

// Theorem 1, first half: no true event is missed.
func TestNoFalseNegatives(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		series := randomSeries(seed, 400)
		st := memStore(t, Options{Epsilon: 0.4, Window: 4000})
		ingest(t, st, series)

		for _, q := range []struct {
			T int64
			V float64
		}{{500, -2}, {1500, -4}, {4000, -6}, {300, -1}} {
			events, err := naive.Drops(series, q.T, q.V)
			if err != nil {
				t.Fatal(err)
			}
			matches, err := st.SearchDrops(q.T, q.V)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if !covered(matches, e.T1, e.T2) {
					t.Fatalf("seed=%d T=%d V=%v: true event (%d,%d,Δv=%.3f) not covered by %d matches",
						seed, q.T, q.V, e.T1, e.T2, e.Dv, len(matches))
				}
			}
		}
	}
}

func TestNoFalseNegativesJumps(t *testing.T) {
	series := randomSeries(42, 400)
	st := memStore(t, Options{Epsilon: 0.4, Window: 4000})
	ingest(t, st, series)
	for _, q := range []struct {
		T int64
		V float64
	}{{500, 2}, {2000, 4}} {
		events, err := naive.Jumps(series, q.T, q.V)
		if err != nil {
			t.Fatal(err)
		}
		matches, err := st.SearchJumps(q.T, q.V)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if !covered(matches, e.T1, e.T2) {
				t.Fatalf("T=%d V=%v: true jump (%d,%d) not covered", q.T, q.V, e.T1, e.T2)
			}
		}
	}
}

// Theorem 1, second half: every returned pair contains an event with
// Δv ≤ V + 2ε (drop) within (0, T], verified exactly on model G with a
// slack of one time unit of slope for integer-grid effects.
func TestFalsePositiveBound(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		series := randomSeries(seed, 300)
		const eps = 0.4
		st := memStore(t, Options{Epsilon: eps, Window: 4000})
		ingest(t, st, series)
		slack := maxAbsSlope(t, st)*2 + 1e-9

		for _, q := range []struct {
			T int64
			V float64
		}{{800, -3}, {2500, -5}} {
			matches, err := st.SearchDrops(q.T, q.V)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				d, ok, err := naive.ExtremeChange(series, m.From.Start, m.From.End, m.To.Start, m.To.End, q.T, true)
				if err != nil {
					t.Fatalf("seed=%d match %+v: %v", seed, m, err)
				}
				if !ok {
					t.Fatalf("seed=%d match %+v admits no event at all", seed, m)
				}
				if d > q.V+2*eps+slack {
					t.Fatalf("seed=%d T=%d V=%v: match %+v best drop %.4f exceeds V+2ε=%.4f",
						seed, q.T, q.V, m, d, q.V+2*eps)
				}
			}
		}
	}
}

func TestFalsePositiveBoundJumps(t *testing.T) {
	series := randomSeries(11, 300)
	const eps = 0.3
	st := memStore(t, Options{Epsilon: eps, Window: 4000})
	ingest(t, st, series)
	slack := maxAbsSlope(t, st)*2 + 1e-9
	matches, err := st.SearchJumps(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		d, ok, err := naive.ExtremeChange(series, m.From.Start, m.From.End, m.To.Start, m.To.End, 1000, false)
		if err != nil || !ok {
			t.Fatalf("match %+v: ok=%v err=%v", m, ok, err)
		}
		if d < 3-2*eps-slack {
			t.Fatalf("match %+v best jump %.4f below V−2ε=%.4f", m, d, 3-2*eps)
		}
	}
}

// All three plan modes must return identical matches: PlanAuto is the
// scan of the committed segments, the forced modes run the feature-index
// union it is judged against. The grid covers both kinds, spans up to the
// window (where Algorithm 1 truncates earlier segments) and a reopen.
func TestPlanModeEquivalence(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.2, Window: 5000})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, st, randomSeries(20, 500))
	found := requireScanMatchesReference(t, st, "ingested")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := requireScanMatchesReference(t, st, "reopened"); n != found {
		t.Fatalf("the reopened store found %d matches over the grid, the ingesting one %d", n, found)
	}
	if found == 0 {
		t.Fatal("no grid point matched anything; the comparison was vacuous")
	}
}

// requireScanMatchesReference runs a (kind, T, V) grid — T up to the
// store's window — under every plan mode and fails unless the scan
// (PlanAuto) and both reference plans return identical matches. It
// returns the number of matches the grid found.
func requireScanMatchesReference(t *testing.T, st *Store, step string) int {
	t.Helper()
	found := 0
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for _, T := range []int64{300, st.Window() / 2, st.Window()} {
			for _, mag := range []float64{0.5, 2} {
				V := mag
				if kind == feature.Drop {
					V = -mag
				}
				ref, err := st.SearchMode(kind, T, V, sqlmini.PlanForceIndex)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []sqlmini.PlanMode{sqlmini.PlanAuto, sqlmini.PlanForceScan} {
					got, err := st.SearchMode(kind, T, V, mode)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, ref) {
						i := 0
						for i < min(len(got), len(ref)) && got[i] == ref[i] {
							i++
						}
						t.Fatalf("%s: %v T=%d V=%v: mode %v found %d matches, forced index %d; first difference at %d: %v vs %v",
							step, kind, T, V, mode, len(got), len(ref), i, got[i:min(i+1, len(got))], ref[i:min(i+1, len(ref))])
					}
				}
				found += len(ref)
			}
		}
	}
	return found
}

func TestCADEventRecovered(t *testing.T) {
	// A clean synthetic day with one sharp injected drop must be found by
	// the canonical query (3 degrees within 1 hour).
	cfg := synth.Config{
		Seed: 5, Duration: 2 * synth.SecondsPerDay,
		CADPerWeek: 40, AnomalyRate: -1, NoiseStd: 0.05,
	}
	series, events, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := -1
	for i, e := range events {
		if e.Drop >= 4 && e.DropLen <= 3600 && e.Start > series.Start() && e.End() < series.End() {
			big = i
			break
		}
	}
	if big < 0 {
		t.Skip("no suitable event generated (seed-dependent)")
	}
	st := memStore(t, Options{Epsilon: 0.2, Window: 8 * 3600})
	ingest(t, st, series)
	matches, err := st.SearchDrops(3600, -3)
	if err != nil {
		t.Fatal(err)
	}
	e := events[big]
	found := false
	for _, m := range matches {
		// The event's drop phase must intersect some match.
		if m.From.Start <= e.Start+e.DropLen && e.Start <= m.To.End {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("injected CAD event at %d (drop %.1f over %d s) not found among %d matches",
			e.Start, e.Drop, e.DropLen, len(matches))
	}
}

func TestSearchValidation(t *testing.T) {
	st := memStore(t, Options{Window: 1000})
	series := randomSeries(1, 50)
	ingest(t, st, series)
	if _, err := st.SearchDrops(2000, -3); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("T > w accepted: %v", err)
	}
	if _, err := st.SearchDrops(0, -3); err == nil {
		t.Fatal("T=0 accepted")
	}
	if _, err := st.SearchDrops(100, 3); err == nil {
		t.Fatal("positive V accepted for drops")
	}
	if _, err := st.SearchJumps(100, -3); err == nil {
		t.Fatal("negative V accepted for jumps")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := OpenMemory(Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	if _, err := OpenMemory(Options{Epsilon: math.NaN()}); err == nil {
		t.Fatal("NaN epsilon accepted")
	}
	if _, err := OpenMemory(Options{Window: -5}); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestAppendAfterFinish(t *testing.T) {
	st := memStore(t, Options{})
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(timeseries.Point{T: 1, V: 1}); err == nil {
		t.Fatal("append after finish accepted")
	}
	if err := st.Finish(); err != nil {
		t.Fatal("second finish should be nil")
	}
}

func TestStats(t *testing.T) {
	series := randomSeries(33, 400)
	st := memStore(t, Options{Epsilon: 0.5, Window: 3000})
	ingest(t, st, series)
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 400 {
		t.Fatalf("points = %d", stats.Points)
	}
	if stats.Segments == 0 || stats.CompressionRate <= 1 {
		t.Fatalf("segments=%d r=%v", stats.Segments, stats.CompressionRate)
	}
	if stats.FeatureRows == 0 || stats.FeatureBytes == 0 {
		t.Fatalf("feature stats empty: %+v", stats)
	}
	if stats.IndexBytes == 0 {
		t.Fatal("index bytes zero despite indexes")
	}
	if stats.DiskBytes() != stats.FeatureBytes+stats.IndexBytes {
		t.Fatal("DiskBytes inconsistent")
	}
	hist := stats.Extraction.CornerCount
	if hist[1]+hist[2]+hist[3] != stats.Extraction.Boundaries {
		t.Fatalf("corner histogram inconsistent: %+v", hist)
	}
	if st.Epsilon() != 0.5 || st.Window() != 3000 {
		t.Fatal("accessors wrong")
	}
}

func TestPersistenceAndResume(t *testing.T) {
	dir := t.TempDir()
	series := randomSeries(50, 300)
	half := series.Head(150)

	st, err := Open(dir, Options{Epsilon: 0.3, Window: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSeries(half); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: search works, options are restored from meta.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epsilon() != 0.3 || st2.Window() != 2000 {
		t.Fatalf("restored options: eps=%v w=%d", st2.Epsilon(), st2.Window())
	}
	m1, err := st2.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	// Continue ingesting the second half; searches must then cover the
	// later events too.
	rest := timeseries.MustNew(series.Points()[150:])
	if err := st2.AppendSeries(rest); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	m2, err := st3.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) < len(m1) {
		t.Fatalf("matches shrank after resume: %d -> %d", len(m1), len(m2))
	}
	// Events in the second half must be covered (the segmenter restarts at
	// the resume point, so cross-boundary events may be split, but events
	// after the boundary must be found).
	evs, err := naive.Drops(rest, 1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if !covered(m2, e.T1, e.T2) {
			t.Fatalf("post-resume event (%d,%d) not covered", e.T1, e.T2)
		}
	}
}

func TestReopenMismatchedOptions(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.3, Window: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Epsilon: 0.7}); err == nil {
		t.Fatal("mismatched epsilon accepted")
	}
	if _, err := Open(dir, Options{Window: 999}); err == nil {
		t.Fatal("mismatched window accepted")
	}
}

func TestEmptyStoreSearch(t *testing.T) {
	st := memStore(t, Options{})
	m, err := st.SearchDrops(3600, -3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("empty store returned %d matches", len(m))
	}
}

// TestParallelMatchesSequential checks that the reference union's branch
// fan-out never changes an answer: stores with UnionWorkers 1 (branches
// evaluated one after another) and 8 return identical matches in both
// forced plan modes across a grid of queries, for both kinds.
func TestParallelMatchesSequential(t *testing.T) {
	series := randomSeries(23, 2000)
	open := func(workers int) *Store {
		st := memStore(t, Options{Epsilon: 0.2, Window: 3000, DB: sqlmini.Options{UnionWorkers: workers}})
		ingest(t, st, series)
		t.Cleanup(func() { st.Close() })
		return st
	}
	seq, par := open(1), open(8)
	total := 0
	for _, mode := range []sqlmini.PlanMode{sqlmini.PlanForceIndex, sqlmini.PlanForceScan} {
		for _, T := range []int64{600, 3000} {
			for _, q := range []struct {
				kind feature.Kind
				V    float64
			}{{feature.Drop, -1}, {feature.Drop, -4}, {feature.Jump, 1}, {feature.Jump, 4}} {
				s, err := seq.SearchMode(q.kind, T, q.V, mode)
				if err != nil {
					t.Fatal(err)
				}
				p, err := par.SearchMode(q.kind, T, q.V, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(s, p) {
					t.Fatalf("%v %v T=%d V=%v: sequential %d matches, parallel %d", mode, q.kind, T, q.V, len(s), len(p))
				}
				total += len(s)
			}
		}
	}
	if total == 0 {
		t.Fatal("no query matched: the comparison is vacuous")
	}
}

func TestSegmentsCatalog(t *testing.T) {
	series := randomSeries(70, 200)
	st := memStore(t, Options{Epsilon: 0.2, Window: 3000})
	ingest(t, st, series)
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	if segs[0].Ts != series.Start() || segs[len(segs)-1].Te != series.End() {
		t.Fatal("segment catalog does not span the series")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Ts != segs[i-1].Te {
			t.Fatalf("segments not contiguous at %d", i)
		}
	}
}

func TestPrune(t *testing.T) {
	series := randomSeries(80, 400)
	st := memStore(t, Options{Epsilon: 0.3, Window: 3000})
	ingest(t, st, series)
	before, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Skip("no matches in this workload (seed-dependent)")
	}
	cutoff := series.Start() + series.Span()/2
	removed, err := st.Prune(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("prune removed nothing")
	}
	after, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("prune did not shrink results: %d -> %d", len(before), len(after))
	}
	for _, m := range after {
		if m.To.End <= cutoff {
			t.Fatalf("pruned-era match survived: %+v", m)
		}
	}
	// Recent events must be unaffected: every pre-prune match ending after
	// the cutoff must still be returned.
	kept := map[Match]bool{}
	for _, m := range after {
		kept[m] = true
	}
	for _, m := range before {
		if m.To.End > cutoff && !kept[m] {
			t.Fatalf("recent match %+v lost by prune", m)
		}
	}
	// Segment catalog pruned too.
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range segs {
		if g.Te <= cutoff {
			t.Fatalf("old segment %v survived prune", g)
		}
	}
}
