package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"segdiff/internal/feature"
	"segdiff/internal/scan"
	"segdiff/internal/storage/pager"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/timeseries"
)

// TestPruneKeepsScanExact drives retention through the cases that decide
// which segments a pruned store must keep: a cutoff inside a segment that
// straddles it, one exactly at a segment boundary, one mid-series between
// samples, and one within w of the head; then more appends, a reopen, and
// more appends again. At every step the scan must equal the forced-index
// reference, and each prune must keep exactly the matches with TA after
// its cutoff.
func TestPruneKeepsScanExact(t *testing.T) {
	const w = 3000
	series := randomSeries(81, 900)
	pts := series.Points()
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.3, Window: w})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	appendAll := func(ps []timeseries.Point) {
		t.Helper()
		for _, p := range ps {
			if err := st.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(pts[:500])
	requireScanMatchesReference(t, st, "ingested")

	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	n := len(segs)
	cutoffs := []struct {
		name   string
		before int64
	}{
		{"inside a straddling segment", segs[n/5].Ts + 1},
		{"at a segment boundary", segs[n/3].Te},
		{"mid-series", series.Start() + (segs[n-1].Te-series.Start())/2 + 7},
		{"within w of the head", segs[n-1].Te - w/3},
	}
	for _, c := range cutoffs {
		if c.before <= segs[0].Ts || c.before >= segs[n-1].Te {
			t.Fatalf("%s: cutoff %d outside the committed span", c.name, c.before)
		}
		// Prune's contract: a match survives iff TA > before.
		want := map[feature.Kind][]Match{}
		for _, q := range pruneQueries {
			all, err := st.SearchMode(q.kind, w, q.V, sqlmini.PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			want[q.kind] = []Match{}
			for _, m := range all {
				if m.To.End > c.before {
					want[q.kind] = append(want[q.kind], m)
				}
			}
		}
		if _, err := st.Prune(c.before); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireScanMatchesReference(t, st, "pruned "+c.name)
		for _, q := range pruneQueries {
			got, err := st.SearchMode(q.kind, w, q.V, sqlmini.PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[q.kind]) {
				t.Fatalf("%s: %v: %d matches after the prune, want the %d with TA after the cutoff",
					c.name, q.kind, len(got), len(want[q.kind]))
			}
		}
		after, err := st.Segments()
		if err != nil {
			t.Fatal(err)
		}
		if len(after) == 0 || after[0].Te <= c.before {
			t.Fatalf("%s: Segments lists a segment ending at or before the cutoff: %v", c.name, after[:min(1, len(after))])
		}
	}

	appendAll(pts[500:700])
	requireScanMatchesReference(t, st, "appended after the prunes")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	requireScanMatchesReference(t, st, "reopened")
	segs, err = st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	// A reopen behaves like a sensor gap: resume after the committed end.
	rest := pts[700:]
	for len(rest) > 0 && rest[0].T <= segs[len(segs)-1].Te {
		rest = rest[1:]
	}
	appendAll(rest)
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	requireScanMatchesReference(t, st, "appended after the reopen")
}

// TestMirrorExtendEqualsMount checks that the skip bounds a store extends
// commit by commit equal the bounds derived at once from the same
// segments: over batches of random sizes (a few points to several
// windows' worth), a Prune in the middle, a reopen, and more batches.
func TestMirrorExtendEqualsMount(t *testing.T) {
	const w = 3000
	pts := randomSeries(83, 1500).Points()
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.3, Window: w})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	check := func(step string) {
		t.Helper()
		m := st.snap.Load().mirror
		if len(m.Segments()) == 0 {
			t.Fatalf("%s: no segments", step)
		}
		if at := scan.NewMirror(m.Segments(), w); !reflect.DeepEqual(m, at) {
			t.Fatalf("%s: the bounds of %d segments differ from those derived at once", step, len(m.Segments()))
		}
	}
	rng := rand.New(rand.NewSource(5))
	ingestBatches := func(ps []timeseries.Point, step string) {
		t.Helper()
		for len(ps) > 0 {
			n := min(len(ps), 1+rng.Intn([]int{3, 30, 300}[rng.Intn(3)]))
			for _, p := range ps[:n] {
				if err := st.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			ps = ps[n:]
			if len(st.snap.Load().mirror.Segments()) > 0 {
				check(step)
			}
		}
	}
	ingestBatches(pts[:600], "ingest")
	segs := st.snap.Load().mirror.Segments()
	if _, err := st.Prune(segs[len(segs)/2].Ts + 1); err != nil {
		t.Fatal(err)
	}
	check("prune")
	ingestBatches(pts[600:1000], "after the prune")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	check("reopen")
	// A reopen behaves like a sensor gap: resume after the committed end.
	segs = st.snap.Load().mirror.Segments()
	rest := pts[1000:]
	for len(rest) > 0 && rest[0].T <= segs[len(segs)-1].Te {
		rest = rest[1:]
	}
	ingestBatches(rest, "after the reopen")
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	check("finish")
}

var pruneQueries = []struct {
	kind feature.Kind
	V    float64
}{{feature.Drop, -1.5}, {feature.Jump, 1.5}}

// TestSearchContextExpired: an expired deadline fails the scan path with
// an error that is context.DeadlineExceeded for errors.Is.
func TestSearchContextExpired(t *testing.T) {
	st := memStore(t, Options{Epsilon: 0.2, Window: 3000})
	defer st.Close()
	ingest(t, st, randomSeries(5, 300))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := st.SearchContext(ctx, feature.Drop, 1000, -2, sqlmini.PlanAuto)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: %v", err)
	}
}

// stallFile holds the WAL's fsync while armed, so a commit can be caught
// in the middle with the engine's write lock held.
type stallFile struct {
	pager.File
	armed   *atomic.Bool
	stalled chan<- struct{}
	release <-chan struct{}
}

func (f stallFile) Sync() error {
	if f.armed.CompareAndSwap(true, false) {
		f.stalled <- struct{}{}
		<-f.release
	}
	return f.File.Sync()
}

// TestSearchDoesNotWaitOnCommit stalls a Sync inside the WAL fsync and
// requires a concurrent search to return promptly with the last committed
// answer: the scan reads the published snapshot and takes no engine lock.
func TestSearchDoesNotWaitOnCommit(t *testing.T) {
	var armed atomic.Bool
	stalled := make(chan struct{})
	release := make(chan struct{})
	factory := func(path string) (pager.File, error) {
		f := pager.File(pager.NewMemFile())
		if filepath.Base(path) == "wal.log" {
			f = stallFile{File: f, armed: &armed, stalled: stalled, release: release}
		}
		return f, nil
	}
	st, err := Open(t.TempDir(), Options{Epsilon: 0.2, Window: 3000, DB: sqlmini.Options{FileFactory: factory}})
	if err != nil {
		t.Fatal(err)
	}
	series := randomSeries(9, 500)
	if err := st.AppendSeries(timeseries.MustNew(series.Points()[:250])); err != nil {
		t.Fatal(err)
	}
	want, err := st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- st.AppendSeries(timeseries.MustNew(series.Points()[250:])) }()
	select {
	case <-stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("the commit never reached the WAL fsync")
	}
	searched := make(chan error, 1)
	var got []Match
	go func() {
		var err error
		got, err = st.SearchDrops(1000, -2)
		searched <- err
	}()
	select {
	case err := <-searched:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a search waited on a commit stalled in fsync")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a search during the commit saw %d matches, the last committed state %d", len(got), len(want))
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	got, err = st.SearchDrops(1000, -2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := st.SearchMode(feature.Drop, 1000, -2, sqlmini.PlanForceIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= len(want) || !reflect.DeepEqual(got, ref) {
		t.Fatalf("after the commit the scan found %d matches (%d before it), the reference %d", len(got), len(want), len(ref))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// failSyncFile fails the WAL's fsync once while armed.
type failSyncFile struct {
	pager.File
	armed *atomic.Bool
}

var errSyncFault = errors.New("injected fsync failure")

func (f failSyncFile) Sync() error {
	if f.armed.CompareAndSwap(true, false) {
		return errSyncFault
	}
	return f.File.Sync()
}

// TestFailedCommitKeepsScanExact fails a commit in the WAL fsync. Past a
// failed commit the engine keeps what it holds, so the store derives its
// snapshot again from the segs table: the scan must still equal the
// reference, and so after Abort, the resumed feed and a reopen.
func TestFailedCommitKeepsScanExact(t *testing.T) {
	var armed atomic.Bool
	dir := t.TempDir()
	files := map[string]pager.File{}
	factory := func(path string) (pager.File, error) {
		f, ok := files[path]
		if !ok {
			f = pager.NewMemFile()
			files[path] = f
		}
		if filepath.Base(path) == "wal.log" {
			return failSyncFile{File: f, armed: &armed}, nil
		}
		return f, nil
	}
	opts := Options{Epsilon: 0.2, Window: 3000, DB: sqlmini.Options{FileFactory: factory}}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := randomSeries(13, 600).Points()
	if err := st.AppendSeries(timeseries.MustNew(pts[:300])); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if err := st.AppendSeries(timeseries.MustNew(pts[300:450])); !errors.Is(err, errSyncFault) {
		t.Fatalf("commit with a failing fsync: %v", err)
	}
	requireScanMatchesReference(t, st, "failed commit")
	if err := st.Abort(); err != nil {
		t.Fatal(err)
	}
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	rest := pts[450:]
	for len(rest) > 0 && rest[0].T <= segs[len(segs)-1].Te {
		rest = rest[1:]
	}
	if err := st.AppendSeries(timeseries.MustNew(rest)); err != nil {
		t.Fatal(err)
	}
	requireScanMatchesReference(t, st, "resumed after the failed commit")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	requireScanMatchesReference(t, st, "reopened after the failed commit")
}
