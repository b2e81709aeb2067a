// Package core is the SegDiff framework itself: it wires the online
// segmentation (internal/segment), the windowed parallelogram feature
// extraction (internal/extract), the scan-and-refine search
// (internal/scan), and the relational storage layer
// (internal/storage/sqlmini) into the system of the paper —
//
//	observations → piecewise linear segments → segs table (+ memory mirror)
//	                                         → ε-shifted boundary corners
//	                                         → feature tables with B-tree indexes
//	drop/jump search → one pass over the committed segments, recomputing
//	            each candidate pair's corners and applying the point and
//	            line queries → segment-pair tuples ((t_D, t_C), (t_B, t_A))
//
// Search is served from the committed segments alone: Theorem 1 depends
// only on the corners, and recomputing them for the pairs that can still
// match beats reading them back through the feature indexes. The feature
// tables are still written at ingest and remain the reference path: the
// paper's union of point and line queries over them runs under an
// explicit plan mode (SearchMode with PlanForceScan or PlanForceIndex,
// TraceSearch), and the tests require both paths to agree bit for bit.
//
// Storage schema. Features are stored by search kind and corner count,
// matching the paper's variable-width layout (Section 5.2, c₂ ∈ {5,6,7}):
//
//	dropf1(dt1, dv1, td, tc, tb, ta)              jumpf1(...)
//	dropf2(dt1, dv1, dt2, dv2, td, tc, tb, ta)    jumpf2(...)
//	dropf3(dt1, dv1, ..., dt3, dv3, td, tc, tb, ta)  jumpf3(...)
//	segs(ts, vs, te, ve)       -- the data-segment catalog
//	meta(k, v)                 -- persisted ε and w
//
// Each corner carries a B-tree index on (dtᵢ, dvᵢ) for the point query and
// each boundary edge an index on (dtᵢ, dvᵢ, dtᵢ₊₁, dvᵢ₊₁) for the line
// query, reproducing the paper's observation that SegDiff's index overhead
// exceeds its feature size. meta also holds pruned_before, the retention
// cutoff, once Prune has run.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"segdiff/internal/extract"
	"segdiff/internal/feature"
	"segdiff/internal/obs"
	"segdiff/internal/scan"
	"segdiff/internal/segment"
	"segdiff/internal/storage/pager"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/timeseries"
)

// Options configures a Store.
type Options struct {
	// Epsilon is the segmentation error tolerance ε (default 0.2, the
	// paper's default). Search results are exact up to 2ε (Theorem 1).
	Epsilon float64
	// Window is w, the longest supported time span in time units
	// (default 8 hours in seconds, the paper's default). Searches require
	// T ≤ Window.
	Window int64
	// DB tunes the underlying storage engine.
	DB sqlmini.Options

	// Set-flags recorded by normalize so a resumed store can tell an
	// explicitly requested default (which must match the persisted value)
	// from an unset option (which adopts it).
	epsilonSet bool
	windowSet  bool
}

func (o Options) normalize() (Options, error) {
	o.epsilonSet = o.Epsilon != 0
	o.windowSet = o.Window != 0
	if o.Epsilon == 0 {
		o.Epsilon = 0.2
	}
	if o.Epsilon < 0 || math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return o, fmt.Errorf("core: invalid epsilon %v", o.Epsilon)
	}
	if o.Window == 0 {
		o.Window = 8 * 3600
	}
	if o.Window < 0 {
		return o, fmt.Errorf("core: negative window %d", o.Window)
	}
	return o, nil
}

// Match is a search result: the paper's tuple ((t_D, t_C), (t_B, t_A)).
// The drop (or jump) starts somewhere in From = [t_D, t_C] and ends in
// To = [t_B, t_A].
type Match = scan.Match

// Store is a single-sensor SegDiff store. It keeps an in-memory mirror of
// its committed segments and their skip bounds (scan.Mirror): derived
// from the segs table at open, extended after each successful commit, and
// published as one immutable snapshot.
// SearchDrops, SearchJumps and SearchContext under PlanAuto scan that
// snapshot (internal/scan), so they take no engine lock and never wait on
// ingest. The feature-index union is the reference path, run by SearchMode
// and SearchContext under PlanForceScan or PlanForceIndex and by
// TraceSearch under the engine's shared read lock; its UNION branches
// spread over a bounded worker pool (Options.DB.UnionWorkers). Searches,
// Stats and Segments are safe for concurrent use. Ingestion (Append, Sync,
// Abort, Finish, Prune) must be driven by a single goroutine.
type Store struct {
	db   *sqlmini.DB
	opts Options

	// snap is the committed state search reads; only the ingest
	// goroutine stores it.
	snap atomic.Pointer[committed]
	// pending holds the segments emitted since the last Sync, in the
	// order they reach the segs table; Sync publishes them after commit.
	pending []segment.Segment

	seg *segment.Segmenter
	ext *extract.Extractor

	insSeg     *sqlmini.Stmt
	insFeat    map[feature.Kind]map[int]*sqlmini.Stmt // by kind, corner count
	searchStmt map[feature.Kind]*sqlmini.Stmt         // one UNION statement per kind
	finished   bool
	dirty      bool

	// Segment and feature rows accumulate here in emission order and
	// reach the engine in one ExecBatch per table at Sync. The engine is
	// untouched between Syncs, and the heap layout — the table files'
	// bytes — follows emission order, not where the Syncs fall.
	segRows  [][]sqlmini.Value
	featRows map[feature.Kind]map[int][][]sqlmini.Value
}

// committed is one published snapshot of the searchable state: the
// mirror of the segs table (its rows in time order with their skip
// bounds), and the retention cutoff. A pair is searchable iff its end
// segment ends after prunedBefore; the segments at or before it that
// remain serve as the earlier segment (CD) of later pairs only. Snapshots
// are immutable once stored: a commit publishes the mirror extended by its
// segments (appending past every published length), Prune a rebuilt one.
type committed struct {
	mirror       *scan.Mirror
	prunedBefore int64
}

// searchable returns the segments that end after the retention cutoff.
func (c *committed) searchable() []segment.Segment {
	segs := c.mirror.Segments()
	k := sort.Search(len(segs), func(i int) bool { return segs[i].Te > c.prunedBefore })
	return segs[k:]
}

// Open opens (creating or resuming) an on-disk store.
func Open(dir string, opts Options) (*Store, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	db, err := sqlmini.Open(dir, opts.DB)
	if err != nil {
		return nil, err
	}
	s, err := initStore(db, opts)
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return s, nil
}

// OpenMemory opens an in-memory store.
func OpenMemory(opts Options) (*Store, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	return initStore(sqlmini.OpenMemory(opts.DB), opts)
}

func initStore(db *sqlmini.DB, opts Options) (*Store, error) {
	s := &Store{db: db, opts: opts}
	s.featRows = map[feature.Kind]map[int][][]sqlmini.Value{
		feature.Drop: {}, feature.Jump: {},
	}
	fresh, err := s.ensureSchema()
	if err != nil {
		return nil, err
	}
	if fresh {
		if err := s.writeMeta(); err != nil {
			return nil, err
		}
	} else {
		if err := s.checkMeta(); err != nil {
			return nil, err
		}
	}
	if err := s.prepareStatements(); err != nil {
		return nil, err
	}
	if err := s.mount(); err != nil {
		return nil, err
	}
	return s, nil
}

// mount derives the committed snapshot, skip bounds included, from the
// segs table and meta, and rebuilds the ingest pipeline from it. Open
// runs it, and so does a failed commit, whose rows the engine may still
// hold.
func (s *Store) mount() error {
	meta, err := s.readMeta()
	if err != nil {
		return err
	}
	c := &committed{prunedBefore: math.MinInt64}
	if v, ok := meta[metaPrunedBefore]; ok {
		c.prunedBefore = int64(v)
	}
	rows, err := s.db.Query("SELECT ts, vs, te, ve FROM segs ORDER BY ts")
	if err != nil {
		return err
	}
	segs := make([]segment.Segment, 0, rows.Len())
	for _, row := range rows.Data {
		segs = append(segs, segment.Segment{Ts: row[0].I, Vs: row[1].R, Te: row[2].I, Ve: row[3].R})
	}
	c.mirror = scan.NewMirror(segs, s.opts.Window)
	s.snap.Store(c)
	return s.initPipeline()
}

func tableName(kind feature.Kind, nc int) string {
	base := "dropf"
	if kind == feature.Jump {
		base = "jumpf"
	}
	return fmt.Sprintf("%s%d", base, nc)
}

// ensureSchema creates tables and indexes; it reports whether the schema
// was freshly created.
func (s *Store) ensureSchema() (bool, error) {
	tables := s.db.Tables()
	for _, t := range tables {
		if t == "segs" {
			return false, nil // already initialized
		}
	}
	ddl := []string{
		"CREATE TABLE meta (k TEXT, v REAL)",
		"CREATE TABLE segs (ts INT, vs REAL, te INT, ve REAL)",
		"CREATE INDEX segs_ts ON segs (ts)",
	}
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for nc := 1; nc <= 3; nc++ {
			name := tableName(kind, nc)
			var cols []string
			for i := 1; i <= nc; i++ {
				cols = append(cols, fmt.Sprintf("dt%d INT, dv%d REAL", i, i))
			}
			cols = append(cols, "td INT, tc INT, tb INT, ta INT")
			ddl = append(ddl, fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(cols, ", ")))
			// Point-query index per corner.
			for i := 1; i <= nc; i++ {
				ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_c%d ON %s (dt%d, dv%d)", name, i, name, i, i))
			}
			// Line-query index per boundary edge.
			for i := 1; i < nc; i++ {
				ddl = append(ddl, fmt.Sprintf(
					"CREATE INDEX %s_l%d ON %s (dt%d, dv%d, dt%d, dv%d)",
					name, i, name, i, i, i+1, i+1))
			}
		}
	}
	for _, stmt := range ddl {
		if _, err := s.db.Exec(stmt); err != nil {
			return false, err
		}
	}
	return true, nil
}

func (s *Store) writeMeta() error {
	if _, err := s.db.Exec("INSERT INTO meta VALUES ('epsilon', ?)", sqlmini.Real(s.opts.Epsilon)); err != nil {
		return err
	}
	_, err := s.db.Exec("INSERT INTO meta VALUES ('window', ?)", sqlmini.Real(float64(s.opts.Window)))
	return err
}

// metaPrunedBefore is the meta key of the retention cutoff.
const metaPrunedBefore = "pruned_before"

func (s *Store) readMeta() (map[string]float64, error) {
	r, err := s.db.Query("SELECT k, v FROM meta")
	if err != nil {
		return nil, err
	}
	stored := map[string]float64{}
	for _, row := range r.Data {
		stored[row[0].S] = row[1].R
	}
	return stored, nil
}

// checkMeta loads ε and w from a resumed store; explicit options must
// match the persisted values.
func (s *Store) checkMeta() error {
	stored, err := s.readMeta()
	if err != nil {
		return err
	}
	eps, ok1 := stored["epsilon"]
	win, ok2 := stored["window"]
	if !ok1 || !ok2 {
		return fmt.Errorf("core: store meta incomplete")
	}
	if s.opts.epsilonSet && s.opts.Epsilon != eps {
		return fmt.Errorf("core: store was built with epsilon=%v, reopened with %v", eps, s.opts.Epsilon)
	}
	if s.opts.windowSet && s.opts.Window != int64(win) {
		return fmt.Errorf("core: store was built with window=%v, reopened with %v", int64(win), s.opts.Window)
	}
	s.opts.Epsilon = eps
	s.opts.Window = int64(win)
	return nil
}

func (s *Store) prepareStatements() error {
	var err error
	s.insSeg, err = s.db.Prepare("INSERT INTO segs VALUES (?, ?, ?, ?)")
	if err != nil {
		return err
	}
	s.insFeat = map[feature.Kind]map[int]*sqlmini.Stmt{
		feature.Drop: {},
		feature.Jump: {},
	}
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for nc := 1; nc <= 3; nc++ {
			ph := make([]string, 2*nc+4)
			for i := range ph {
				ph[i] = "?"
			}
			stmt, err := s.db.Prepare(fmt.Sprintf(
				"INSERT INTO %s VALUES (%s)", tableName(kind, nc), strings.Join(ph, ", ")))
			if err != nil {
				return err
			}
			s.insFeat[kind][nc] = stmt
		}
	}
	// One UNION of all point and line queries per search kind
	// (Section 4.4: "the union of the results of two point queries and
	// one line query", here across the three corner-count tables).
	s.searchStmt = map[feature.Kind]*sqlmini.Stmt{}
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		stmt, err := s.db.Prepare(searchUnionSQL[kind])
		if err != nil {
			return err
		}
		s.searchStmt[kind] = stmt
	}
	return nil
}

// initPipeline builds the segmenter and extractor from the committed
// snapshot, preloading the extractor window with the segments the next
// one can pair with. (The segmenter restarts fresh: a reopen behaves like
// a sensor gap at the boundary.)
func (s *Store) initPipeline() error {
	ext, err := extract.New(s.opts.Epsilon, s.opts.Window, s.storeBoundary)
	if err != nil {
		return err
	}
	s.ext = ext
	if segs := s.snap.Load().mirror.Segments(); len(segs) > 0 {
		from := segs[len(segs)-1].Te - s.opts.Window
		k := sort.Search(len(segs), func(i int) bool { return segs[i].Te > from })
		if err := s.ext.Preload(segs[k:]); err != nil {
			return err
		}
	}
	s.seg, err = segment.NewSegmenter(s.opts.Epsilon, s.storeSegment)
	return err
}

func (s *Store) storeSegment(g segment.Segment) error {
	row := []sqlmini.Value{
		sqlmini.Int(g.Ts), sqlmini.Real(g.Vs), sqlmini.Int(g.Te), sqlmini.Real(g.Ve)}
	s.segRows = append(s.segRows, row)
	s.pending = append(s.pending, g)
	return s.ext.Push(g)
}

func (s *Store) storeBoundary(b feature.Boundary) error {
	nc := len(b.Corners)
	args := make([]sqlmini.Value, 0, 2*nc+4)
	for _, c := range b.Corners {
		args = append(args, sqlmini.Int(c.Dt), sqlmini.Real(c.Dv))
	}
	args = append(args,
		sqlmini.Int(b.TD), sqlmini.Int(b.TC), sqlmini.Int(b.TB), sqlmini.Int(b.TA))
	s.featRows[b.Kind][nc] = append(s.featRows[b.Kind][nc], args)
	return nil
}

// buffered reports how many rows await the next Sync.
func (s *Store) buffered() int {
	n := len(s.segRows)
	for _, byNC := range s.featRows {
		for _, rows := range byNC {
			n += len(rows)
		}
	}
	return n
}

func (s *Store) clearBuffers() {
	s.segRows = s.segRows[:0]
	s.pending = s.pending[:0]
	for _, byNC := range s.featRows {
		for nc := range byNC {
			byNC[nc] = byNC[nc][:0]
		}
	}
}

// flushRows drains the buffers through one ExecBatch per table. Within a
// table, buffer order is emission order, so the heap receives rows in the
// order the pipeline produced them.
//
// batchabort: caller — an ExecBatch failure here leaves the engine batch
// open; Sync owns the AbortBatch.
func (s *Store) flushRows() error {
	if len(s.segRows) > 0 {
		if _, err := s.insSeg.ExecBatch(s.segRows); err != nil {
			return err
		}
	}
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for nc := 1; nc <= 3; nc++ {
			rows := s.featRows[kind][nc]
			if len(rows) == 0 {
				continue
			}
			if _, err := s.insFeat[kind][nc].ExecBatch(rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append feeds one observation through segmentation and feature
// extraction. Inserts are batched; call Sync (or Close) to make them
// durable and searchable.
func (s *Store) Append(p timeseries.Point) error {
	if s.finished {
		return fmt.Errorf("core: append after Finish")
	}
	s.dirty = true
	return s.seg.Push(p)
}

// AppendSeries appends a whole series and commits the batch. If any point
// is rejected, everything appended since the last Sync is aborted so no
// partial series is ever committed.
func (s *Store) AppendSeries(series *timeseries.Series) error {
	for _, p := range series.Points() {
		if err := s.Append(p); err != nil {
			// The append error comes first; a failed rollback must
			// surface too rather than being silently dropped.
			return errors.Join(err, s.Abort())
		}
	}
	return s.Sync()
}

// Sync commits the current ingest batch: buffered rows are written through
// the engine's batched insert path — one writer-lock acquisition and one
// sorted, index-parallel apply per table, then a single group commit
// (one fsync) — and only then are the new segments published to search.
// The trailing partial segment (if any) remains open: its observations
// become searchable once the segment closes (more data arrives or Finish
// is called). On error the store is rolled back to its last committed
// state (see Abort).
func (s *Store) Sync() error {
	if !s.dirty {
		return nil
	}
	s.dirty = false
	if s.buffered() == 0 {
		return nil
	}
	s.db.BeginBatch()
	if err := s.flushRows(); err != nil {
		// Partial rows reached the engine: roll back to the last commit.
		// AbortBatch cannot help an in-memory store (nothing durable to
		// restore from); the flush error stays first, but rollback and
		// pipeline-rebuild failures surface alongside it.
		s.clearBuffers()
		return errors.Join(err, s.db.AbortBatch(), s.initPipeline())
	}
	if err := s.db.CommitBatch(); err != nil {
		// The engine keeps what it holds past a failed commit (the rows
		// may yet reach the log with the next one), so the snapshot and
		// the pipeline are derived again from its segs table.
		s.clearBuffers()
		return errors.Join(err, s.mount())
	}
	old := s.snap.Load()
	s.snap.Store(&committed{mirror: old.mirror.Extend(s.pending), prunedBefore: old.prunedBefore})
	s.clearBuffers()
	return nil
}

// Abort discards everything appended since the last successful Sync:
// buffered rows are dropped and the segmentation pipeline is rebuilt from
// the committed snapshot. Nothing touches the engine between Syncs, so
// Abort is exact for on-disk and in-memory stores alike.
func (s *Store) Abort() error {
	s.dirty = false
	s.clearBuffers()
	return s.initPipeline()
}

// Finish flushes the trailing partial segment and commits. After Finish
// the store is read-only for search.
func (s *Store) Finish() error {
	if s.finished {
		return nil
	}
	s.finished = true
	s.dirty = true
	if err := s.seg.Close(); err != nil {
		return errors.Join(err, s.Abort())
	}
	return s.Sync()
}

// Close finishes ingestion and closes the underlying database.
func (s *Store) Close() error {
	if err := s.Finish(); err != nil {
		return err
	}
	return s.db.Close()
}

// SearchDrops returns every segment pair whose parallelogram intersects
// the drop query region (Δv ≤ V within 0 < Δt ≤ T). V must be negative, T
// positive and at most the store's window. The guarantee of Theorem 1
// holds: no true event is missed, and every returned pair contains an
// event with Δv ≤ V + 2ε within (0, T].
func (s *Store) SearchDrops(T int64, V float64) ([]Match, error) {
	return s.search(context.Background(), feature.Drop, T, V, sqlmini.PlanAuto)
}

// SearchJumps is the symmetric jump search (Δv ≥ V > 0).
func (s *Store) SearchJumps(T int64, V float64) ([]Match, error) {
	return s.search(context.Background(), feature.Jump, T, V, sqlmini.PlanAuto)
}

// SearchMode runs a drop or jump search under a plan mode. PlanAuto is
// the served search, a scan of the committed segments; PlanForceScan and
// PlanForceIndex run the reference path, the paper's union of point and
// line queries over the feature tables, with every branch forced to a
// sequential heap scan or to its corner index. All three return the same
// matches.
func (s *Store) SearchMode(kind feature.Kind, T int64, V float64, mode sqlmini.PlanMode) ([]Match, error) {
	return s.search(context.Background(), kind, T, V, mode)
}

// SearchContext is SearchMode under a request context. The scan checks
// the context before its pass and every 1024 end segments; the reference
// path checks it before execution and between scan units of its UNION.
// Either way an expired deadline or a disconnected client aborts the
// query within one bounded unit of work, and the returned error wraps
// context.DeadlineExceeded / context.Canceled for errors.Is.
func (s *Store) SearchContext(ctx context.Context, kind feature.Kind, T int64, V float64, mode sqlmini.PlanMode) ([]Match, error) {
	return s.search(ctx, kind, T, V, mode)
}

func (s *Store) search(ctx context.Context, kind feature.Kind, T int64, V float64, mode sqlmini.PlanMode) ([]Match, error) {
	r, err := feature.NewRegion(kind, T, V)
	if err != nil {
		return nil, err
	}
	if T > s.opts.Window {
		return nil, fmt.Errorf("core: T=%d exceeds the store window w=%d", T, s.opts.Window)
	}
	if mode == sqlmini.PlanAuto {
		c := s.snap.Load()
		return c.mirror.Search(ctx, r, s.opts.Epsilon, c.prunedBefore)
	}
	var args []sqlmini.Value
	for _, q := range searchQueries(kind) {
		args = append(args, q.args(T, V)...)
	}
	rows, err := s.searchStmt[kind].QueryModeContext(ctx, mode, args...)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, rows.Len())
	for _, row := range rows.Data {
		out = append(out, rowMatch(row))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To.Start != out[j].To.Start {
			return out[i].To.Start < out[j].To.Start
		}
		return out[i].From.Start < out[j].From.Start
	})
	return out, nil
}

// rowMatch reads a (td, tc, tb, ta) row of the reference union.
func rowMatch(row []sqlmini.Value) Match {
	return Match{
		From: scan.Interval{Start: row[0].I, End: row[1].I},
		To:   scan.Interval{Start: row[2].I, End: row[3].I},
	}
}

// searchQuery is one point or line query of the union.
type searchQuery struct {
	sql   string
	nArgs int
}

func (q searchQuery) args(T int64, V float64) []sqlmini.Value {
	out := make([]sqlmini.Value, 0, q.nArgs)
	for i := 0; i < q.nArgs; i += 2 {
		out = append(out, sqlmini.Int(T), sqlmini.Real(V))
	}
	return out
}

// The search statement sets are pure functions of the (fixed) schema, so
// they are derived once at package initialization and shared by every
// store: each open used to re-derive every branch's SQL text through
// fmt.Sprintf, and each search re-derived it again to count arguments.
var (
	searchQuerySets = map[feature.Kind][]searchQuery{
		feature.Drop: buildSearchQueries(feature.Drop),
		feature.Jump: buildSearchQueries(feature.Jump),
	}
	// searchUnionSQL is the joined UNION text per kind. All branches are
	// plain SELECTs over a corner table (no aggregates, ORDER BY, or
	// LIMIT), so the engine's fusion pass shares one scan across the
	// branches that plan to the same corner index.
	searchUnionSQL = map[feature.Kind]string{
		feature.Drop: joinUnion(searchQuerySets[feature.Drop]),
		feature.Jump: joinUnion(searchQuerySets[feature.Jump]),
	}
)

// searchQueries returns the precomputed union branches for a search kind.
func searchQueries(kind feature.Kind) []searchQuery {
	return searchQuerySets[kind]
}

func joinUnion(qs []searchQuery) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = q.sql
	}
	return strings.Join(parts, " UNION ")
}

// buildSearchQueries derives the union of queries for a search kind
// (Section 4.4): one point query per stored corner and one line query per
// stored boundary edge, across the three corner-count tables.
func buildSearchQueries(kind feature.Kind) []searchQuery {
	cmp, inv := "<=", ">"
	if kind == feature.Jump {
		cmp, inv = ">=", "<"
	}
	var out []searchQuery
	for nc := 1; nc <= 3; nc++ {
		name := tableName(kind, nc)
		for i := 1; i <= nc; i++ {
			out = append(out, searchQuery{
				sql: fmt.Sprintf(
					"SELECT td, tc, tb, ta FROM %s WHERE dt%d <= ? AND dv%d %s ?",
					name, i, i, cmp),
				nArgs: 2,
			})
		}
		for i := 1; i < nc; i++ {
			out = append(out, searchQuery{
				sql: fmt.Sprintf(
					"SELECT td, tc, tb, ta FROM %s WHERE dt%d <= ? AND dv%d %s ? AND dt%d > ? AND dv%d %s ? "+
						"AND dv%d + (dv%d - dv%d) / (dt%d - dt%d) * (? - dt%d) %s ?",
					name,
					i, i, inv, // left end outside in value
					i+1, i+1, cmp, // right end beyond T, inside in value
					i, i+1, i, i+1, i, i, cmp), // boundary value at Δt=T
				nArgs: 6,
			})
		}
	}
	return out
}

// Stats describes the store's contents and compression behaviour.
type Stats struct {
	Points          int     // observations consumed this session
	Segments        int     // segments stored this session
	CompressionRate float64 // r: points per segment (this session)
	Extraction      extract.Stats
	FeatureRows     int   // rows across all feature tables
	FeatureBytes    int64 // heap bytes across feature tables + segs
	IndexBytes      int64 // index bytes across feature tables + segs
	Epsilon         float64
	Window          int64
	// Cache aggregates the buffer-pool counters of every mounted file for
	// this session.
	Cache pager.Stats
	// ZoneSkippedPages counts heap pages zone-map pruning excluded from
	// sequential scans this session.
	ZoneSkippedPages uint64
}

// DiskBytes is features plus indexes — the paper's "disk size".
func (st Stats) DiskBytes() int64 { return st.FeatureBytes + st.IndexBytes }

// Stats gathers current statistics.
func (s *Store) Stats() (Stats, error) {
	st := Stats{Epsilon: s.opts.Epsilon, Window: s.opts.Window}
	st.Points, st.Segments = s.seg.Stats()
	st.CompressionRate = s.seg.CompressionRate()
	st.Extraction = s.ext.Stats()
	tables := []string{"segs"}
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for nc := 1; nc <= 3; nc++ {
			tables = append(tables, tableName(kind, nc))
		}
	}
	for _, t := range tables {
		n, err := s.db.RowCount(t)
		if err != nil {
			return st, err
		}
		if t != "segs" {
			st.FeatureRows += n
		}
		fb, err := s.db.TableSizeBytes(t)
		if err != nil {
			return st, err
		}
		st.FeatureBytes += fb
		ib, err := s.db.IndexSizeBytes(t)
		if err != nil {
			return st, err
		}
		st.IndexBytes += ib
	}
	st.Cache = s.db.CacheStats()
	st.ZoneSkippedPages = s.db.ZoneSkippedPages()
	return st, nil
}

// TraceSearch runs the reference path of a drop or jump search — the
// union of point and line queries over the feature tables, planned under
// mode — under EXPLAIN ANALYZE and returns its runtime trace: one node per
// scan unit of the UNION, annotated with actual row counts, page I/O
// deltas, zone-map skips, and wall time next to the planner's estimates.
// It traces the reference plan even under PlanAuto, where SearchMode
// serves the scan instead. The union executes sequentially on the calling
// goroutine so page attribution stays per-node.
func (s *Store) TraceSearch(kind feature.Kind, T int64, V float64, mode sqlmini.PlanMode) (*obs.Trace, error) {
	if _, err := feature.NewRegion(kind, T, V); err != nil {
		return nil, err
	}
	if T > s.opts.Window {
		return nil, fmt.Errorf("core: T=%d exceeds the store window w=%d", T, s.opts.Window)
	}
	var args []sqlmini.Value
	for _, q := range searchQueries(kind) {
		args = append(args, q.args(T, V)...)
	}
	return s.db.ExplainAnalyze(mode, searchUnionSQL[kind], args...)
}

// Metrics snapshots the engine's metrics registry: query counters and
// latency histogram, buffer-pool and WAL counters, worker gauges. The
// snapshot is internally consistent without stalling readers or
// writers.
func (s *Store) Metrics() obs.Snapshot { return s.db.Metrics() }

// DB exposes the underlying engine for ad-hoc SQL exploration (used by the
// CLI's sql subcommand and the benchmarks).
func (s *Store) DB() *sqlmini.DB { return s.db }

// Epsilon returns the store's ε.
func (s *Store) Epsilon() float64 { return s.opts.Epsilon }

// Window returns the store's w.
func (s *Store) Window() int64 { return s.opts.Window }

// Prune removes every match whose end segment ends at or before the
// cutoff timestamp, bounding the store for long-running deployments
// (retention): a match survives iff TA > before. It returns the number of
// feature rows removed. Space is reclaimed logically (heap pages keep
// their tombstones).
//
// Segments go only when no surviving or future end segment can pair with
// them: those ending at or before min(t₀, last end) − w, where t₀ is the
// start of the first segment ending after the cutoff. The cutoff itself
// is persisted as meta's pruned_before (the largest so far, clamped to the
// last committed end so later segments stay searchable) in the same batch,
// and the search reports only pairs whose end segment ends after it.
func (s *Store) Prune(before int64) (int, error) {
	if s.dirty {
		if err := s.Sync(); err != nil {
			return 0, err
		}
	}
	old := s.snap.Load()
	segs := old.mirror.Segments()
	cut, keepFrom := old.prunedBefore, int64(math.MinInt64)
	if n := len(segs); n > 0 {
		last := segs[n-1].Te
		cut = max(cut, min(before, last))
		t0 := last
		if k := sort.Search(n, func(i int) bool { return segs[i].Te > cut }); k < n {
			t0 = segs[k].Ts
		}
		keepFrom = t0 - s.opts.Window
	}

	s.db.BeginBatch()
	removed := 0
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for nc := 1; nc <= 3; nc++ {
			n, err := s.db.Exec(
				fmt.Sprintf("DELETE FROM %s WHERE ta <= ?", tableName(kind, nc)),
				sqlmini.Int(cut))
			if err != nil {
				// Leaving the batch open would wedge the engine in batch
				// mode and silently drop every later commit.
				return removed, errors.Join(err, s.db.AbortBatch())
			}
			removed += n
		}
	}
	for _, st := range []struct {
		sql  string
		args []sqlmini.Value
	}{
		{"DELETE FROM segs WHERE te <= ?", []sqlmini.Value{sqlmini.Int(keepFrom)}},
		{"DELETE FROM meta WHERE k = ?", []sqlmini.Value{sqlmini.Text(metaPrunedBefore)}},
		{"INSERT INTO meta VALUES (?, ?)", []sqlmini.Value{sqlmini.Text(metaPrunedBefore), sqlmini.Real(float64(cut))}},
	} {
		if _, err := s.db.Exec(st.sql, st.args...); err != nil {
			return removed, errors.Join(err, s.db.AbortBatch())
		}
	}
	if err := s.db.CommitBatch(); err != nil {
		return removed, errors.Join(err, s.mount())
	}
	k := sort.Search(len(segs), func(i int) bool { return segs[i].Te > keepFrom })
	s.snap.Store(&committed{mirror: scan.NewMirror(segs[k:], s.opts.Window), prunedBefore: cut})
	return removed, nil
}

// Segments returns the searchable data-segment catalog in temporal order:
// the committed segments that end after the retention cutoff. (Segments
// Prune keeps only as the earlier half of later pairs are not listed.)
func (s *Store) Segments() ([]segment.Segment, error) {
	segs := s.snap.Load().searchable()
	return append(make([]segment.Segment, 0, len(segs)), segs...), nil
}
