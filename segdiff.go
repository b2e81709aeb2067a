// Package segdiff is a library for searching for drops (and jumps) in
// sensor time series, reproducing the SegDiff framework of Chen, Cho and
// Hansen, "On the brink: Searching for drops in sensor data" (EDBT 2008).
//
// A drop search asks: at which periods in history did the signal fall by
// at least |V| units within a time span of at most T? SegDiff answers such
// ad-hoc queries quickly by
//
//  1. compressing the series online into a piecewise linear approximation
//     with maximum error ε/2,
//  2. summarizing all potential events between every pair of nearby
//     segments as a parallelogram in (Δt, Δv) feature space, storing only
//     the ε-shifted boundary corners needed for intersection tests, and
//  3. answering each search with one pass over the stored segments that
//     recomputes the corners of the pairs that can still match and applies
//     the paper's point and line queries to them. The corners are also
//     stored in B-tree-indexed feature tables (served by an embedded
//     storage engine written for this library); the paper's relational
//     range queries over them are the reference the pass is tested
//     against, and what ExplainDrops traces.
//
// Results come with the paper's Theorem 1 guarantee: no true event is
// missed, and every reported period contains an event within 2ε of the
// requested threshold. Events are defined on the linear-interpolation
// model of the signal, so drops that straddle sampling instants are found
// too.
//
// # Quick start
//
//	ix, err := segdiff.NewMemory(segdiff.Options{Epsilon: 0.2, Window: 8 * time.Hour})
//	...
//	for _, p := range observations {
//		ix.Append(p.Time, p.Value) // online ingest
//	}
//	ix.Finish()
//	matches, err := ix.Drops(time.Hour, -3) // ≥3-unit drop within 1 hour
//	for _, m := range matches {
//		fmt.Printf("drop starts in [%d,%d], ends in [%d,%d]\n",
//			m.From.Start, m.From.End, m.To.Start, m.To.End)
//	}
//
// Use Open for a durable on-disk index and OpenCollection to manage one
// index per sensor.
//
// # Concurrency
//
// Searches are safe to issue from any number of goroutines and run in
// parallel end to end: each reads an immutable snapshot of the committed
// segments, published after every commit, and takes no engine lock, so a
// search never waits on ingest. A Collection searches at most GOMAXPROCS
// sensors at once.
//
// The write path is batched: Append buffers rows in memory and Sync (or
// Finish/Close) pushes them through the engine in bulk — one writer-lock
// acquisition per table, each secondary index applied as a sorted run on
// its own worker (at most GOMAXPROCS at once), and one WAL group commit, so
// a whole batch costs a single fsync. The batch's segments become
// searchable once that commit succeeds. Ingestion into one Index (Append,
// Sync, Abort, Finish, Prune) must stay single-goroutine. A Collection
// ingests many sensors in parallel via AppendAll.
package segdiff

import (
	"context"
	"errors"
	"fmt"
	"time"

	"segdiff/internal/core"
	"segdiff/internal/feature"
	"segdiff/internal/scan"
	"segdiff/internal/smooth"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/timeseries"
)

// Point is one observation: a value sampled at a Unix-style timestamp in
// seconds (any integral time unit works as long as it is consistent).
type Point struct {
	Time  int64   `json:"t"`
	Value float64 `json:"v"`
}

// Interval is a closed time interval [Start, End], with JSON fields
// "start" and "end". Contains(t) reports whether t lies in it.
type Interval = scan.Interval

// Match is one search result: the event starts somewhere in From and ends
// somewhere in To (the paper's tuple ((t_D, t_C), (t_B, t_A))), with JSON
// fields "from" and "to". From and To are endpoints of data segments of
// the underlying piecewise linear approximation; a matched period
// typically contains one or more events. The search builds it once and
// returns it as is: the type is the scan's own.
type Match = scan.Match

// Options configures an Index.
type Options struct {
	// Epsilon is the approximation tolerance ε in value units
	// (default 0.2). Larger ε compresses more and answers faster; results
	// stay exact up to 2ε.
	Epsilon float64
	// Window is the longest time span searches will ever use
	// (default 8 h). Queries require T ≤ Window.
	Window time.Duration
}

func (o Options) toCore() core.Options {
	return core.Options{
		Epsilon: o.Epsilon,
		Window:  int64(o.Window / time.Second),
	}
}

// Index is a drop/jump search index over a single time series (one
// sensor). It is safe for concurrent searches, which execute genuinely in
// parallel: each scans the last committed snapshot of the segments
// without taking the storage engine's lock, so an Append or Sync
// concurrent with searches neither blocks them nor changes what they
// see until its commit succeeds. Ingestion must be single-goroutine.
type Index struct {
	st *core.Store
}

// Open opens (creating or resuming) an on-disk index in dir.
func Open(dir string, opts Options) (*Index, error) {
	st, err := core.Open(dir, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Index{st: st}, nil
}

// NewMemory returns an in-memory index (no durability).
func NewMemory(opts Options) (*Index, error) {
	st, err := core.OpenMemory(opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Index{st: st}, nil
}

// Append ingests one observation online. Timestamps must be strictly
// increasing. Features become searchable once their segment closes; call
// Sync to commit a batch or Finish to flush the trailing segment.
func (ix *Index) Append(t int64, v float64) error {
	return ix.st.Append(timeseries.Point{T: t, V: v})
}

// AppendPoints ingests a batch and commits it. If any point is rejected,
// everything appended since the last commit is rolled back so no partial
// batch is ever committed.
func (ix *Index) AppendPoints(pts []Point) error {
	for _, p := range pts {
		if err := ix.Append(p.Time, p.Value); err != nil {
			// The append error comes first; a failed rollback is surfaced
			// alongside it rather than dropped.
			return errors.Join(err, ix.st.Abort())
		}
	}
	return ix.Sync()
}

// Sync commits buffered features to storage in one batch (a single fsync
// for durable indexes).
func (ix *Index) Sync() error { return ix.st.Sync() }

// Abort discards everything appended since the last commit and rebuilds
// the ingest pipeline from committed state.
func (ix *Index) Abort() error { return ix.st.Abort() }

// Finish flushes the trailing partial segment; afterwards the index is
// read-only.
func (ix *Index) Finish() error { return ix.st.Finish() }

// Close finishes and releases the index.
func (ix *Index) Close() error { return ix.st.Close() }

// Drops searches for periods experiencing a drop of at least |v| value
// units (v must be negative) within a span of at most span. No true event
// is missed; every returned match contains an event with change ≤ v + 2ε.
// Matches come in ascending order of where the drop ends (To.Start), then
// of where it starts (From.Start), so data appended later only adds to
// the tail of an answer.
func (ix *Index) Drops(span time.Duration, v float64) ([]Match, error) {
	return ix.search(context.Background(), feature.Drop, span, v)
}

// Jumps searches for rises of at least v (v must be positive) within span.
func (ix *Index) Jumps(span time.Duration, v float64) ([]Match, error) {
	return ix.search(context.Background(), feature.Jump, span, v)
}

// DropsContext is Drops under a request context: the search aborts with
// an error wrapping ctx.Err() as soon as the deadline expires or the
// caller cancels, checked before the scan and every 1024 segments of it,
// so servers can enforce per-request deadlines.
func (ix *Index) DropsContext(ctx context.Context, span time.Duration, v float64) ([]Match, error) {
	return ix.search(ctx, feature.Drop, span, v)
}

// JumpsContext is the context-aware jump search; see DropsContext.
func (ix *Index) JumpsContext(ctx context.Context, span time.Duration, v float64) ([]Match, error) {
	return ix.search(ctx, feature.Jump, span, v)
}

func (ix *Index) search(ctx context.Context, kind feature.Kind, span time.Duration, v float64) ([]Match, error) {
	T, err := spanSeconds(span)
	if err != nil {
		return nil, err
	}
	return ix.st.SearchContext(ctx, kind, T, v, sqlmini.PlanAuto)
}

func spanSeconds(span time.Duration) (int64, error) {
	T := int64(span / time.Second)
	if T <= 0 {
		return 0, fmt.Errorf("segdiff: span %v is below one second", span)
	}
	return T, nil
}

// QueryTrace is the EXPLAIN ANALYZE record of one search: the executed
// plan rendered line by line — every scan unit annotated with actual
// rows, page I/O, zone-map skips, and wall time next to the planner's
// estimates — plus the aggregate runtime counters.
type QueryTrace struct {
	SQL          string        `json:"sql"`
	Mode         string        `json:"mode"`
	Wall         time.Duration `json:"wall_ns"`
	Rows         int           `json:"rows"`
	Lines        []string      `json:"lines"`
	RowsExamined int64         `json:"rows_examined"`
	RowsReturned int64         `json:"rows_returned"`
	PagesRead    uint64        `json:"pages_read"`
}

// ExplainDrops runs the feature-index reference plan of a drop search —
// the paper's union of point and line queries over the stored corners —
// under EXPLAIN ANALYZE and returns its runtime trace. It traces that
// reference, not the scan Drops serves; both return the same matches.
// The union executes sequentially so page attribution stays per scan
// unit.
func (ix *Index) ExplainDrops(span time.Duration, v float64) (QueryTrace, error) {
	return ix.explain(feature.Drop, span, v)
}

// ExplainJumps is the symmetric jump-search trace; see ExplainDrops.
func (ix *Index) ExplainJumps(span time.Duration, v float64) (QueryTrace, error) {
	return ix.explain(feature.Jump, span, v)
}

func (ix *Index) explain(kind feature.Kind, span time.Duration, v float64) (QueryTrace, error) {
	T, err := spanSeconds(span)
	if err != nil {
		return QueryTrace{}, err
	}
	tr, err := ix.st.TraceSearch(kind, T, v, sqlmini.PlanAuto)
	if err != nil {
		return QueryTrace{}, err
	}
	return QueryTrace{
		SQL:          tr.SQL,
		Mode:         tr.Mode,
		Wall:         time.Duration(tr.WallNS),
		Rows:         tr.Rows,
		Lines:        tr.Lines(),
		RowsExamined: tr.RowsExaminedTotal(),
		RowsReturned: tr.RowsReturnedTotal(),
		PagesRead:    tr.PagesReadTotal(),
	}, nil
}

// Stats reports storage and compression statistics.
type Stats struct {
	Points          int     // observations ingested this session
	Segments        int     // linear segments produced this session
	CompressionRate float64 // observations per segment
	FeatureRows     int     // stored feature rows
	FeatureBytes    int64   // feature table bytes
	IndexBytes      int64   // B-tree index bytes
	Epsilon         float64
	Window          time.Duration
}

// DiskBytes is the total storage footprint (features + indexes).
func (s Stats) DiskBytes() int64 { return s.FeatureBytes + s.IndexBytes }

// Stats gathers current statistics.
func (ix *Index) Stats() (Stats, error) {
	st, err := ix.st.Stats()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Points:          st.Points,
		Segments:        st.Segments,
		CompressionRate: st.CompressionRate,
		FeatureRows:     st.FeatureRows,
		FeatureBytes:    st.FeatureBytes,
		IndexBytes:      st.IndexBytes,
		Epsilon:         st.Epsilon,
		Window:          time.Duration(st.Window) * time.Second,
	}, nil
}

// Segment is one piece of the stored piecewise linear approximation.
type Segment struct {
	Start, End Point
}

// Segments returns the stored approximation, for plotting matches against
// the compressed signal (paper Figure 1).
func (ix *Index) Segments() ([]Segment, error) {
	segs, err := ix.st.Segments()
	if err != nil {
		return nil, err
	}
	out := make([]Segment, len(segs))
	for i, g := range segs {
		out[i] = Segment{
			Start: Point{Time: g.Ts, Value: g.Vs},
			End:   Point{Time: g.Te, Value: g.Ve},
		}
	}
	return out, nil
}

// Prune removes all indexed history up to the cutoff timestamp
// (retention for long-running deployments): a match survives iff its
// To.End is after the cutoff. Pruned periods are no longer searchable,
// and Segments no longer lists segments ending at or before the cutoff.
// It returns the number of feature rows removed.
func (ix *Index) Prune(before int64) (int, error) { return ix.st.Prune(before) }

// Denoise applies the paper's preprocessing: a robust local-linear
// smoother that removes isolated anomaly spikes while preserving genuine
// multi-sample drops. bandwidth is the smoothing half-window (default
// 30 min when zero). Feed the result to Append.
func Denoise(pts []Point, bandwidth time.Duration) ([]Point, error) {
	s := &timeseries.Series{}
	for _, p := range pts {
		if err := s.Append(timeseries.Point{T: p.Time, V: p.Value}); err != nil {
			return nil, err
		}
	}
	sm, err := smooth.Robust(s, smooth.Config{Bandwidth: int64(bandwidth / time.Second)})
	if err != nil {
		return nil, err
	}
	out := make([]Point, sm.Len())
	for i, p := range sm.Points() {
		out[i] = Point{Time: p.T, Value: p.V}
	}
	return out, nil
}
