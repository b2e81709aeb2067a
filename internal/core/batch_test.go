package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"segdiff/internal/feature"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/timeseries"
)

// Regression: an explicitly requested default (Epsilon 0.2, Window 8h) was
// indistinguishable from an unset option, so reopening a store built with
// different parameters silently adopted the stored values instead of
// failing the mismatch check.
func TestReopenExplicitDefaultsChecked(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.5, Window: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Epsilon: 0.2}); err == nil {
		t.Fatal("explicit default epsilon accepted against a 0.5 store")
	}
	if _, err := Open(dir, Options{Window: 8 * 3600}); err == nil {
		t.Fatal("explicit default window accepted against a 2000 store")
	}
	// Unset options still adopt the stored values.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Epsilon() != 0.5 || st2.Window() != 2000 {
		t.Fatalf("adopted eps=%v w=%d", st2.Epsilon(), st2.Window())
	}

	// A store genuinely built with the defaults accepts them explicitly.
	dir2 := t.TempDir()
	st3, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}
	st4, err := Open(dir2, Options{Epsilon: 0.2, Window: 8 * 3600})
	if err != nil {
		t.Fatalf("explicit defaults rejected against a default store: %v", err)
	}
	st4.Close()
}

// Where the Syncs fall must not show in the store: the same series
// committed every point, every 97 points, or once gives the same search
// results and byte-identical heap files, because the heap receives rows
// in emission order whatever the batch boundaries. Index files may
// differ: each batch applies its rows as one sorted run, so the cadence
// changes the B+tree split order.
func TestIngestIdenticalAcrossSyncCadence(t *testing.T) {
	series := randomSeries(91, 800)
	cadences := []int{1, 97, series.Len()}
	dirs := make([]string, len(cadences))
	stores := make([]*Store, len(cadences))
	for c, every := range cadences {
		dirs[c] = t.TempDir()
		st, err := Open(dirs[c], Options{Epsilon: 0.3, Window: 4000})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range series.Points() {
			if err := st.Append(p); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every == 0 {
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		stores[c] = st
	}

	for _, q := range []struct {
		kind feature.Kind
		T    int64
		V    float64
	}{
		{feature.Drop, 1000, -2},
		{feature.Drop, 4000, -4},
		{feature.Jump, 2000, 2},
	} {
		want, err := stores[0].SearchMode(q.kind, q.T, q.V, sqlmini.PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%v T=%d V=%v: no matches to compare", q.kind, q.T, q.V)
		}
		for c := 1; c < len(cadences); c++ {
			got, err := stores[c].SearchMode(q.kind, q.T, q.V, sqlmini.PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v T=%d V=%v: Sync every %d: %d matches, every point: %d",
					q.kind, q.T, q.V, cadences[c], len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v T=%d V=%v: Sync every %d: match %d differs: %+v vs %+v",
						q.kind, q.T, q.V, cadences[c], i, got[i], want[i])
				}
			}
		}
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	tables := []string{"t_segs.tbl",
		"t_dropf1.tbl", "t_dropf2.tbl", "t_dropf3.tbl",
		"t_jumpf1.tbl", "t_jumpf2.tbl", "t_jumpf3.tbl"}
	for _, name := range tables {
		want, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c < len(cadences); c++ {
			got, err := os.ReadFile(filepath.Join(dirs[c], name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs between Sync every %d and every point: %d vs %d bytes",
					name, cadences[c], len(got), len(want))
			}
		}
	}
}

// A failed ingest must not leak batch state: after Abort the store answers
// searches from its last committed state and accepts further appends.
func TestAbortAfterFailedIngest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.3, Window: 4000})
	if err != nil {
		t.Fatal(err)
	}
	series := randomSeries(17, 400)
	if err := st.AppendSeries(series); err != nil {
		t.Fatal(err)
	}
	committed, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}

	// Buffer some valid points, then hit a segmenter error (time going
	// backwards). The failed batch is aborted.
	last := series.End()
	for i := int64(1); i <= 50; i++ {
		if err := st.Append(timeseries.Point{T: last + i*30, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(timeseries.Point{T: last - 1000, V: 0}); err == nil {
		t.Fatal("non-monotonic append accepted")
	}
	if err := st.Abort(); err != nil {
		t.Fatal(err)
	}

	after, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(committed) {
		t.Fatalf("aborted ingest changed results: %d vs %d matches", len(after), len(committed))
	}
	for i := range after {
		if after[i] != committed[i] {
			t.Fatalf("match %d changed across abort", i)
		}
	}

	// The store remains usable: append more data past the committed end
	// (the rebuilt pipeline resumes like a sensor gap) and finish.
	for i := int64(1); i <= 100; i++ {
		if err := st.Append(timeseries.Point{T: last + 3600 + i*30, V: float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SearchDrops(1000, -2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// And the on-disk state reopens cleanly.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.SearchDrops(1000, -2); err != nil {
		t.Fatal(err)
	}
}

// AppendSeries on a series whose first point precedes committed data must
// roll itself back and leave the store consistent.
func TestAppendSeriesAbortsOnError(t *testing.T) {
	st := memStore(t, Options{Epsilon: 0.3, Window: 4000})
	series := randomSeries(23, 300)
	if err := st.AppendSeries(series); err != nil {
		t.Fatal(err)
	}
	committed, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	bad := timeseries.MustNew([]timeseries.Point{
		{T: series.Start() - 100, V: 1}, {T: series.Start() - 50, V: 2}})
	if err := st.AppendSeries(bad); err == nil {
		t.Fatal("series behind committed data accepted")
	}
	after, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(committed) {
		t.Fatalf("failed AppendSeries changed results: %d vs %d", len(after), len(committed))
	}
}
