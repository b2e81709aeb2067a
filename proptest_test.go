package segdiff

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"segdiff/internal/core"
	"segdiff/internal/crashtest"
	"segdiff/internal/feature"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/synth"
)

// TestPropertyDifferentialOracle is the property-based differential test
// of the whole public stack: N seeded synthetic series are indexed under
// randomized (ε, w) and queried with randomized (T, V) drop AND jump
// searches, and every answer is checked against the naive
// quadratic-scan oracle for both halves of Theorem 1 —
//
//   - completeness: SegDiff's matches cover every oracle event
//     (no false negatives, the paper's hard guarantee);
//   - precision: every match contains an event with Δv beyond V ∓ 2ε
//     within a span in (0, T], exactly evaluated on the
//     linear-interpolation model.
//
// All randomness is seeded, so a failure reproduces deterministically.
func TestPropertyDifferentialOracle(t *testing.T) {
	nSeries, nQueries := 8, 6
	if testing.Short() {
		nSeries, nQueries = 3, 4
	}
	for i := 0; i < nSeries; i++ {
		seed := int64(100 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			eps := 0.05 + rng.Float64()*0.55              // ε ∈ [0.05, 0.6)
			w := time.Duration(1+rng.Intn(4)) * time.Hour // w ∈ {1h..4h}
			cadPerWeek := 20 + rng.Float64()*30           // event density
			series, _, err := synth.Generate(synth.Config{
				Seed:       seed,
				Duration:   43200,
				CADPerWeek: cadPerWeek,
			})
			if err != nil {
				t.Fatal(err)
			}

			ix, err := NewMemory(Options{Epsilon: eps, Window: w})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for _, p := range series.Points() {
				if err := ix.Append(p.T, p.V); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Finish(); err != nil {
				t.Fatal(err)
			}
			segs, err := ix.Segments()
			if err != nil {
				t.Fatal(err)
			}
			maxSlope := 0.0
			for _, g := range segs {
				if g.End.Time == g.Start.Time {
					continue
				}
				s := (g.End.Value - g.Start.Value) / float64(g.End.Time-g.Start.Time)
				if s < 0 {
					s = -s
				}
				if s > maxSlope {
					maxSlope = s
				}
			}

			wSec := int64(w / time.Second)
			for q := 0; q < nQueries; q++ {
				T := 600 + rng.Int63n(wSec-599) // T ∈ [600, w] seconds
				mag := 1 + rng.Float64()*5      // |V| ∈ [1, 6)
				span := time.Duration(T) * time.Second

				drops, err := ix.Drops(span, -mag)
				if err != nil {
					t.Fatalf("query %d: drops(T=%d, V=%.3f): %v", q, T, -mag, err)
				}
				if err := crashtest.VerifyTheorem1(
					series, feature.Drop, T, -mag, periods(drops), maxSlope, eps); err != nil {
					t.Fatalf("query %d: drops(T=%d, V=%.3f): %v", q, T, -mag, err)
				}

				jumps, err := ix.Jumps(span, mag)
				if err != nil {
					t.Fatalf("query %d: jumps(T=%d, V=%.3f): %v", q, T, mag, err)
				}
				if err := crashtest.VerifyTheorem1(
					series, feature.Jump, T, mag, periods(jumps), maxSlope, eps); err != nil {
					t.Fatalf("query %d: jumps(T=%d, V=%.3f): %v", q, T, mag, err)
				}
			}
		})
	}
}

// TestPropertyFusedScanIdentity is the property-based identity test for
// the served scan and the fused shared-scan reference path: the same
// randomized workload and queries, answered under every PlanMode by union
// pools of size 1 and GOMAXPROCS, must produce identical matches, and the
// serial forced-index answer — the path that never consults zone maps —
// must satisfy Theorem 1 against the naive oracle. PlanAuto is the scan
// of the committed segments (internal/scan); the forced modes run the
// feature-index union. Any divergence is a correctness bug: the scan,
// fusion, pruning and the pool are pure execution-strategy choices.
func TestPropertyFusedScanIdentity(t *testing.T) {
	nSeries, nQueries := 6, 5
	if testing.Short() {
		nSeries, nQueries = 2, 3
	}
	for i := 0; i < nSeries; i++ {
		seed := int64(900 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			eps := 0.05 + rng.Float64()*0.55
			w := time.Duration(1+rng.Intn(4)) * time.Hour
			series, _, err := synth.Generate(synth.Config{
				Seed:       seed,
				Duration:   43200,
				CADPerWeek: 20 + rng.Float64()*30,
			})
			if err != nil {
				t.Fatal(err)
			}

			type config struct {
				name string
				opts core.Options
			}
			base := core.Options{Epsilon: eps, Window: int64(w / time.Second)}
			configs := []config{{"serial", base}, {"pool", base}}
			configs[0].opts.DB = sqlmini.Options{UnionWorkers: 1}

			stores := make([]*core.Store, len(configs))
			for ci, c := range configs {
				st, err := core.OpenMemory(c.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if err := st.AppendSeries(series); err != nil {
					t.Fatal(err)
				}
				if err := st.Finish(); err != nil {
					t.Fatal(err)
				}
				stores[ci] = st
			}
			segs, err := stores[0].Segments()
			if err != nil {
				t.Fatal(err)
			}
			maxSlope := crashtest.MaxSlope(segs)

			wSec := int64(w / time.Second)
			modes := []sqlmini.PlanMode{sqlmini.PlanForceIndex, sqlmini.PlanForceScan, sqlmini.PlanAuto}
			for q := 0; q < nQueries; q++ {
				T := 600 + rng.Int63n(wSec-599)
				mag := 1 + rng.Float64()*5
				for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
					V := mag
					if kind == feature.Drop {
						V = -mag
					}
					ref, err := stores[0].SearchMode(kind, T, V, modes[0])
					if err != nil {
						t.Fatalf("%s %v T=%d V=%.3f mode=%v: %v", configs[0].name, kind, T, V, modes[0], err)
					}
					if err := crashtest.VerifyTheorem1(series, kind, T, V, periods(ref), maxSlope, eps); err != nil {
						t.Fatalf("%v T=%d V=%.3f: %v", kind, T, V, err)
					}
					for ci, st := range stores {
						for _, mode := range modes {
							got, err := st.SearchMode(kind, T, V, mode)
							if err != nil {
								t.Fatalf("%s %v T=%d V=%.3f mode=%v: %v", configs[ci].name, kind, T, V, mode, err)
							}
							if !reflect.DeepEqual(ref, got) {
								t.Errorf("%v T=%d V=%.3f: serial forced-index returned %d matches, %s mode=%v returned %d\nref: %v\ngot: %v",
									kind, T, V, len(ref), configs[ci].name, mode, len(got), ref, got)
							}
						}
					}
				}
			}
		})
	}
}

func periods(ms []Match) []crashtest.Period {
	out := make([]crashtest.Period, len(ms))
	for i, m := range ms {
		out[i] = crashtest.Period{TD: m.From.Start, TC: m.From.End, TB: m.To.Start, TA: m.To.End}
	}
	return out
}
