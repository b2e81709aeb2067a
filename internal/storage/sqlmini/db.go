package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"segdiff/internal/obs"
	"segdiff/internal/storage/btree"
	"segdiff/internal/storage/heap"
	"segdiff/internal/storage/pager"
	"segdiff/internal/storage/wal"
)

// Options tunes a database instance.
type Options struct {
	// PoolPages is the buffer pool capacity per file, in pages
	// (default pager.DefaultCapacity).
	PoolPages int
	// UnionWorkers bounds how many UNION branches a query evaluates
	// concurrently (default runtime.GOMAXPROCS(0); 1 runs branches
	// sequentially). The paper's drop/jump search is a union of ~10
	// independent point and line queries, so this is the engine's main
	// intra-query parallelism knob.
	UnionWorkers int
	// WriteWorkers bounds how many secondary indexes a batched insert
	// (multi-row INSERT or Stmt.ExecBatch) updates concurrently (default
	// runtime.GOMAXPROCS(0); 1 applies indexes sequentially). Each feature
	// table carries one index per parallelogram corner, so this is the
	// write path's counterpart to UnionWorkers.
	WriteWorkers int
	// FileFactory, when non-nil, opens every backing file of an on-disk
	// database — heap tables, B+tree indexes, and the write-ahead log —
	// in place of the default OS file. The crash harness injects
	// faultfs here so scripted write/sync failures and power cuts cover
	// the entire durability path. Ignored by in-memory databases.
	FileFactory func(path string) (pager.File, error)
}

// autoCheckpointSize is the WAL size past which a commit checkpoints.
const autoCheckpointSize = 64 << 20

func (o Options) normalize() Options {
	if o.PoolPages <= 0 {
		o.PoolPages = pager.DefaultCapacity
	}
	if o.UnionWorkers <= 0 {
		o.UnionWorkers = runtime.GOMAXPROCS(0)
	}
	if o.WriteWorkers <= 0 {
		o.WriteWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

type tableHandle struct {
	pg    *pager.Pager
	h     *heap.Heap
	zones *tableZones // derived from the heap at mount; see zones.go
	stats *tableStats // derived from the heap at mount; see stats.go
	path  string
}

type indexHandle struct {
	pg   *pager.Pager
	tree *btree.Tree
	path string
}

// DB is a sqlmini database: a directory of heap-table and B+tree-index
// files plus a WAL, or a fully in-memory instance (dir == ""). All methods
// are safe for concurrent use under a reader/writer discipline: Query,
// QueryMode, prepared Stmt queries, RowCount, TableSizeBytes,
// IndexSizeBytes, CacheStats and Tables run concurrently under a shared
// read lock (each file's buffer pool below them serializes on its own
// mutex), while Exec, batch commit, Checkpoint and Close serialize
// exclusively. Within one query, UNION branches additionally
// fan out across a bounded worker pool (Options.UnionWorkers).
type DB struct {
	mu      sync.RWMutex
	dir     string // "" = in-memory; set once at open
	opts    Options
	catalog *catalog                // guarded by mu (shared for reads)
	tables  map[string]*tableHandle // guarded by mu
	indexes map[string]*indexHandle // guarded by mu
	files   map[uint16]pager.File   // guarded by mu; by catalog FileID, for WAL replay
	log     *wal.Log                // nil in memory mode; set once at open
	inBatch bool                    // guarded by mu
	closed  bool                    // guarded by mu
	// checkpointBytes is the WAL size past which a commit checkpoints;
	// set once at open.
	checkpointBytes int64
	// zoneSkipped counts heap pages skipped by zone-map pruning; atomic
	// because queries increment it under the shared lock. The other two
	// count catalog.json rewrites for registry snapshots.
	zoneSkipped  atomic.Uint64
	catalogSaves atomic.Uint64
	catalogBytes atomic.Uint64

	// Observability. reg and met are created once at open (before the DB
	// is shared) and immutable afterwards. obsPagers is a dedicated list of
	// every mounted pager under its own obsMu rather than db.mu, so
	// CacheStats and registry snapshots read live counters even while a
	// batched write holds the writer lock for its whole duration.
	reg       *obs.Registry
	met       dbMetrics
	obsMu     sync.Mutex
	obsPagers []*pager.Pager // guarded by obsMu
}

// dbMetrics caches the hot-path metric cells so the per-query path never
// touches the registry's name maps (and their lock).
type dbMetrics struct {
	queries      *obs.Counter
	queryErrs    *obs.Counter
	rowsReturned *obs.Counter
	queryNS      *obs.Histogram
}

// initObs creates the metrics registry and registers the snapshot-time
// sources for counters that live in other subsystems. Called once at
// open, before the DB is shared; the WAL source is registered separately
// once the log exists.
func (db *DB) initObs() {
	db.reg = obs.NewRegistry()
	db.met = dbMetrics{
		queries:      db.reg.Counter("engine.queries"),
		queryErrs:    db.reg.Counter("engine.query_errors"),
		rowsReturned: db.reg.Counter("engine.rows_returned"),
		queryNS:      db.reg.Histogram("engine.query_ns"),
	}
	db.reg.Gauge("engine.union_workers").Set(int64(db.opts.UnionWorkers))
	db.reg.Gauge("engine.write_workers").Set(int64(db.opts.WriteWorkers))
	db.reg.RegisterSource(func(put func(string, uint64)) {
		cs := db.CacheStats()
		put("pager.hits", cs.Hits)
		put("pager.misses", cs.Misses)
		put("pager.reads", cs.Reads)
		put("pager.writes", cs.Writes)
		put("pager.evictions", cs.Evictions)
		put("zone.skipped_pages", db.zoneSkipped.Load())
		put("catalog.saves", db.catalogSaves.Load())
		put("catalog.bytes_written", db.catalogBytes.Load())
	})
}

// initObsWAL folds the log's commit/fsync counters into registry
// snapshots. The captured log pointer is read-only here and wal.Stats
// is safe from any goroutine.
func (db *DB) initObsWAL(lg *wal.Log) {
	db.reg.RegisterSource(func(put func(string, uint64)) {
		ws := lg.Stats()
		put("wal.commits", ws.Commits)
		put("wal.fsyncs", ws.Fsyncs)
		put("wal.pages_logged", ws.PagesLogged)
	})
}

// OpenMemory returns an in-memory database (no durability, no WAL).
func OpenMemory(opts Options) *DB {
	db := &DB{
		dir:             "",
		opts:            opts.normalize(),
		catalog:         newCatalog(),
		tables:          map[string]*tableHandle{},
		indexes:         map[string]*indexHandle{},
		files:           map[uint16]pager.File{},
		checkpointBytes: autoCheckpointSize,
	}
	db.initObs()
	return db
}

// Open opens (creating if needed) the database stored in dir, replaying
// the write-ahead log if the previous process crashed. All backing files
// (tables, indexes, and the WAL — including the recovery replay itself)
// are opened through Options.FileFactory when one is set.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sqlmini: create dir: %w", err)
	}
	cat, err := loadCatalog(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{
		dir:             dir,
		opts:            opts.normalize(),
		catalog:         cat,
		tables:          map[string]*tableHandle{},
		indexes:         map[string]*indexHandle{},
		files:           map[uint16]pager.File{},
		checkpointBytes: autoCheckpointSize,
	}
	db.initObs()

	// Recovery: replay committed page images straight into the data files
	// before any pager caches them.
	walPath := filepath.Join(dir, "wal.log")
	replayFiles := map[uint16]pager.File{}
	closeReplay := func() error {
		var errs []error
		for _, f := range replayFiles {
			errs = append(errs, f.Close())
		}
		replayFiles = nil
		return errors.Join(errs...)
	}
	openReplay := func(id uint16, path string) error {
		f, err := db.newFile(path)
		if err != nil {
			return err
		}
		replayFiles[id] = f
		return nil
	}
	for _, t := range cat.Tables {
		if err := openReplay(t.FileID, db.tablePath(t.Name)); err != nil {
			return nil, errors.Join(err, closeReplay())
		}
	}
	for _, ix := range cat.Indexes {
		if err := openReplay(ix.FileID, db.indexPath(ix.Name)); err != nil {
			return nil, errors.Join(err, closeReplay())
		}
	}
	walFile, err := db.newFile(walPath)
	if err != nil {
		return nil, errors.Join(err, closeReplay())
	}
	if _, err := wal.ReplayFile(walFile, func(img wal.PageImage) error {
		f, ok := replayFiles[img.File]
		if !ok {
			return fmt.Errorf("unknown file %d in WAL", img.File)
		}
		_, werr := f.WriteAt(img.Data, int64(img.Page)*pager.PageSize)
		return werr
	}); err != nil {
		return nil, errors.Join(fmt.Errorf("sqlmini: recovery: %w", err), walFile.Close(), closeReplay())
	}
	replayIDs := make([]int, 0, len(replayFiles))
	for id := range replayFiles {
		replayIDs = append(replayIDs, int(id))
	}
	sort.Ints(replayIDs) // deterministic sync order for the crash harness
	for _, id := range replayIDs {
		f := replayFiles[uint16(id)]
		// A power cut can leave a torn partial page at a data file's tail.
		// Such a fragment was never committed: committed content reaches
		// data files only as checkpoint-synced whole pages, and any page
		// still covered by the WAL was rewritten in full just above. Drop
		// it to restore the page-multiple invariant the pager enforces.
		size, err := f.Size()
		if err != nil {
			return nil, errors.Join(err, walFile.Close(), closeReplay())
		}
		if rem := size % pager.PageSize; rem != 0 {
			if err := f.Truncate(size - rem); err != nil {
				return nil, errors.Join(err, walFile.Close(), closeReplay())
			}
		}
		if err := f.Sync(); err != nil {
			return nil, errors.Join(err, walFile.Close(), closeReplay())
		}
	}
	if err := closeReplay(); err != nil {
		return nil, errors.Join(err, walFile.Close())
	}

	// Open the log for appending over the same (already replayed) file,
	// then mount all files. From here on the log owns walFile.
	db.log, err = wal.OpenFile(walFile)
	if err != nil {
		return nil, errors.Join(err, walFile.Close())
	}
	db.initObsWAL(db.log)
	closeMounted := func() error {
		var errs []error
		// Close (and thus flush) in sorted name order, matching the
		// checkpoint convention: the crash tests depend on a stable
		// on-disk write order even on the error path.
		for _, name := range db.sortedTableNames() {
			//segdifflint:ignore lockcheck db is still being constructed inside Open and not yet shared
			errs = append(errs, db.tables[name].pg.Close())
		}
		for _, name := range db.sortedIndexNames() {
			//segdifflint:ignore lockcheck db is still being constructed inside Open and not yet shared
			errs = append(errs, db.indexes[name].pg.Close())
		}
		errs = append(errs, db.log.Close())
		return errors.Join(errs...)
	}
	for _, t := range cat.Tables {
		if err := db.mountTable(t); err != nil {
			return nil, errors.Join(err, closeMounted())
		}
	}
	for _, ix := range cat.Indexes {
		if err := db.mountIndex(ix); err != nil {
			return nil, errors.Join(err, closeMounted())
		}
	}
	// Recovery is complete: persist the replayed state and clear the log.
	if err := db.checkpointLocked(); err != nil {
		return nil, errors.Join(err, closeMounted())
	}
	return db, nil
}

func (db *DB) tablePath(name string) string { return filepath.Join(db.dir, "t_"+name+".tbl") }
func (db *DB) indexPath(name string) string { return filepath.Join(db.dir, "i_"+name+".idx") }

// sortedTableNames and sortedIndexNames give every multi-file engine path
// (commit staging, checkpoint, close, cache drop, batch abort) a
// deterministic file order. The crash harness requires the engine's
// file-operation sequence — and the WAL's byte layout — to be a pure
// function of the workload, never of map iteration order.
//
// locks: db.mu (any)
func (db *DB) sortedTableNames() []string {
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// locks: db.mu (any)
func (db *DB) sortedIndexNames() []string {
	out := make([]string, 0, len(db.indexes))
	for name := range db.indexes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (db *DB) newFile(path string) (pager.File, error) {
	if db.dir == "" {
		return pager.NewMemFile(), nil
	}
	if db.opts.FileFactory != nil {
		return db.opts.FileFactory(path)
	}
	return pager.OpenOSFile(path)
}

func (db *DB) newPager(f pager.File) (*pager.Pager, error) {
	pg, err := pager.New(f, db.opts.PoolPages)
	if err != nil {
		return nil, err
	}
	if db.log != nil {
		pg.SetNoSteal(true)
	}
	return pg, nil
}

// openHeap opens th's heap and derives its zone maps and planner
// statistics from the live rows on the same page pass, so every mounted
// table — after a clean open, a crash recovery or a batch abort alike —
// has summaries that cover it exactly.
//
// locks: db.mu
func (db *DB) openHeap(t *tableSchema, th *tableHandle) error {
	zones, stats := newTableZones(t), newTableStats(t)
	vals := make([]Value, len(t.Cols))
	h, err := heap.OpenVisit(th.pg, func(rid heap.RID, rec []byte) error {
		if _, err := decodeRowInto(t, rec, vals); err != nil {
			return err
		}
		zones.note(rid.Page, vals)
		stats.note(vals)
		return nil
	})
	if err != nil {
		return err
	}
	th.h, th.zones, th.stats = h, zones, stats
	return nil
}

// mountTable opens a table's file, pager and heap and registers the
// handle. Open calls it before the DB is published; afterwards only DDL
// under the exclusive lock does.
//
// locks: db.mu
func (db *DB) mountTable(t *tableSchema) error {
	path := ""
	if db.dir != "" {
		path = db.tablePath(t.Name)
	}
	f, err := db.newFile(path)
	if err != nil {
		return err
	}
	pg, err := db.newPager(f)
	if err != nil {
		return err
	}
	th := &tableHandle{pg: pg, path: path}
	if err := db.openHeap(t, th); err != nil {
		return err
	}
	db.tables[t.Name] = th
	db.files[t.FileID] = f
	//segdifflint:ignore lockcheck obsRegisterPager takes obsMu, not the held db.mu; the order is always mu before obsMu
	db.obsRegisterPager(pg)
	return nil
}

// mountIndex opens an index's file, pager and B+tree and registers the
// handle. Open calls it before the DB is published; afterwards only DDL
// under the exclusive lock does.
//
// locks: db.mu
func (db *DB) mountIndex(ix *indexSchema) error {
	path := ""
	if db.dir != "" {
		path = db.indexPath(ix.Name)
	}
	f, err := db.newFile(path)
	if err != nil {
		return err
	}
	pg, err := db.newPager(f)
	if err != nil {
		return err
	}
	tr, err := btree.Open(pg)
	if err != nil {
		return err
	}
	db.indexes[ix.Name] = &indexHandle{pg: pg, tree: tr, path: path}
	db.files[ix.FileID] = f
	//segdifflint:ignore lockcheck obsRegisterPager takes obsMu, not the held db.mu; the order is always mu before obsMu
	db.obsRegisterPager(pg)
	return nil
}

// obsRegisterPager adds a newly mounted pager to the list CacheStats
// walks. Mounting happens under the exclusive lock, but the list has its
// own mutex so stats readers never need db.mu at all.
func (db *DB) obsRegisterPager(pg *pager.Pager) {
	db.obsMu.Lock()
	db.obsPagers = append(db.obsPagers, pg)
	db.obsMu.Unlock()
}

// Exec parses and executes a statement that returns no rows (DDL, INSERT,
// DELETE), returning the number of affected rows.
func (db *DB) Exec(sql string, args ...Value) (int, error) {
	st, err := parse(sql)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execLocked(st, args)
}

// execLocked dispatches a parsed write statement.
//
// locks: db.mu
func (db *DB) execLocked(st stmt, args []Value) (int, error) {
	if db.closed {
		return 0, fmt.Errorf("sqlmini: database is closed")
	}
	if n := countParams(st); n != len(args) {
		return 0, fmt.Errorf("sqlmini: statement has %d placeholders, got %d args", n, len(args))
	}
	switch s := st.(type) {
	case createTableStmt:
		if err := db.createTable(s); err != nil {
			return 0, err
		}
		return 0, db.maybeCommit()
	case createIndexStmt:
		if err := db.createIndex(s); err != nil {
			return 0, err
		}
		return 0, db.maybeCommit()
	case insertStmt:
		n, err := db.execInsert(s, args)
		if err != nil {
			return 0, err
		}
		return n, db.maybeCommit()
	case deleteStmt:
		n, err := db.execDelete(s, args, PlanAuto)
		if err != nil {
			return 0, err
		}
		return n, db.maybeCommit()
	case selectStmt, explainStmt:
		return 0, fmt.Errorf("sqlmini: use Query for statements that return rows")
	default:
		return 0, fmt.Errorf("sqlmini: unsupported statement %T", st)
	}
}

// createTable registers the schema, persists the catalog and mounts the
// new (empty) heap file.
//
// locks: db.mu
func (db *DB) createTable(s createTableStmt) error {
	if _, exists := db.catalog.Tables[s.name]; exists {
		return fmt.Errorf("sqlmini: table %s already exists", s.name)
	}
	seen := map[string]bool{}
	for _, c := range s.cols {
		if seen[c.Name] {
			return fmt.Errorf("sqlmini: duplicate column %s", c.Name)
		}
		seen[c.Name] = true
	}
	t := &tableSchema{Name: s.name, Cols: s.cols, FileID: db.catalog.NextFileID}
	db.catalog.NextFileID++
	db.catalog.Tables[s.name] = t
	if err := db.saveCatalog(); err != nil {
		return err
	}
	return db.mountTable(t)
}

// createIndex registers the schema, persists the catalog, mounts the tree
// and backfills it from the table's existing rows.
//
// locks: db.mu
func (db *DB) createIndex(s createIndexStmt) error {
	if _, exists := db.catalog.Indexes[s.name]; exists {
		return fmt.Errorf("sqlmini: index %s already exists", s.name)
	}
	schema, ok := db.catalog.Tables[s.table]
	if !ok {
		return fmt.Errorf("sqlmini: no such table %s", s.table)
	}
	for _, c := range s.cols {
		if schema.colIndex(c) < 0 {
			return fmt.Errorf("sqlmini: no column %s in table %s", c, s.table)
		}
	}
	ix := &indexSchema{Name: s.name, Table: s.table, Cols: s.cols, FileID: db.catalog.NextFileID}
	db.catalog.NextFileID++
	db.catalog.Indexes[s.name] = ix
	if err := db.saveCatalog(); err != nil {
		return err
	}
	if err := db.mountIndex(ix); err != nil {
		return err
	}
	// Backfill from existing rows.
	th := db.tables[s.table]
	ih := db.indexes[s.name]
	return th.h.Scan(func(rid heap.RID, rec []byte) (bool, error) {
		vals, err := decodeRow(schema, rec)
		if err != nil {
			return false, err
		}
		key, err := indexKey(schema, ix, vals, rid)
		if err != nil {
			return false, err
		}
		var ridBytes [8]byte
		packRID(ridBytes[:], rid)
		return true, ih.tree.Insert(key, ridBytes[:])
	})
}

// Query parses and executes a SELECT or EXPLAIN with automatic plan
// selection.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	return db.QueryMode(PlanAuto, sql, args...)
}

// QueryMode executes a SELECT or EXPLAIN under an explicit plan mode,
// which is how the benchmark harness forces "sequential scan" versus
// "execution using indexes" as in the paper's experiments.
func (db *DB) QueryMode(mode PlanMode, sql string, args ...Value) (*Rows, error) {
	return db.QueryModeContext(context.Background(), mode, sql, args...)
}

// QueryModeContext is QueryMode under a context: the query fails with a
// ctx-wrapping error as soon as the deadline expires or the caller
// cancels, checked before execution and again between scan units of a
// UNION, so a long search gives up within one unit of work.
func (db *DB) QueryModeContext(ctx context.Context, mode PlanMode, sql string, args ...Value) (*Rows, error) {
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return db.observedQuery(ctx, st, args, mode)
}

// ctxErr reports why a query's context is done, nil while it is live.
// The wrapped cause is preserved so callers can errors.Is against
// context.DeadlineExceeded / context.Canceled.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("sqlmini: query canceled: %w", ctx.Err())
	default:
		return nil
	}
}

// observedQuery runs one parsed read statement under the shared lock,
// feeding the always-on query metrics.
func (db *DB) observedQuery(ctx context.Context, st stmt, args []Value, mode PlanMode) (*Rows, error) {
	start := time.Now()
	rows, err := func() (*Rows, error) {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.queryLocked(ctx, st, args, mode)
	}()
	db.noteQuery(time.Since(start), rows, err)
	return rows, err
}

// noteQuery records one finished query on the registry.
func (db *DB) noteQuery(wall time.Duration, rows *Rows, err error) {
	n := 0
	if rows != nil {
		n = rows.Len()
	}
	db.met.queries.Inc()
	db.met.queryNS.Observe(wall.Nanoseconds())
	db.met.rowsReturned.Add(uint64(n))
	if err != nil {
		db.met.queryErrs.Inc()
	}
}

// queryLocked executes a parsed read statement. Callers hold db.mu shared;
// everything below (planning, heap scans, B+tree range reads) only reads
// engine state, so any number of queries proceed in parallel.
//
// locks: db.mu (shared)
func (db *DB) queryLocked(ctx context.Context, st stmt, args []Value, mode PlanMode) (*Rows, error) {
	if db.closed {
		return nil, fmt.Errorf("sqlmini: database is closed")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if n := countParams(st); n != len(args) {
		return nil, fmt.Errorf("sqlmini: statement has %d placeholders, got %d args", n, len(args))
	}
	switch s := st.(type) {
	case selectStmt:
		return db.execSelect(s, args, mode)
	case unionStmt:
		return db.execUnion(ctx, s, args, mode)
	case explainStmt:
		return db.explain(s, args, mode)
	default:
		return nil, fmt.Errorf("sqlmini: Query supports SELECT and EXPLAIN only")
	}
}

// explain renders the chosen plan for each branch of the statement.
//
// locks: db.mu (shared)
func (db *DB) explain(s explainStmt, args []Value, mode PlanMode) (*Rows, error) {
	if s.analyze {
		return db.explainAnalyzeRows(s, args, mode)
	}
	var schema *tableSchema
	var where expr
	switch inner := s.inner.(type) {
	case selectStmt:
		schema = db.catalog.Tables[inner.table]
		where = inner.where
	case unionStmt:
		// Explain the fused plan: one line per scan unit, with member
		// branches of a fused unit indented beneath their shared scan.
		units, err := db.buildUnionUnits(inner, args, mode)
		if err != nil {
			return nil, err
		}
		out := &Rows{Columns: []string{"plan"}}
		for _, u := range units {
			if u.solo {
				r, err := db.explain(explainStmt{inner: u.stmts[0]}, args, mode)
				if err != nil {
					return nil, err
				}
				out.Data = append(out.Data, r.Data...)
				continue
			}
			if len(u.idxs) == 1 {
				out.Data = append(out.Data, []Value{Text(u.plans[0].explain())})
				continue
			}
			out.Data = append(out.Data, []Value{Text(u.explainHeader())})
			for j := range u.idxs {
				out.Data = append(out.Data, []Value{Text(fmt.Sprintf("  BRANCH %d: %s", u.idxs[j], u.plans[j].explain()))})
			}
		}
		return out, nil
	case deleteStmt:
		schema = db.catalog.Tables[inner.table]
		where = inner.where
	}
	if schema == nil {
		return nil, fmt.Errorf("sqlmini: EXPLAIN references an unknown table")
	}
	if where != nil {
		if err := validateExpr(where, schema, false); err != nil {
			return nil, err
		}
	}
	p, err := buildPlan(db, schema, where, args, mode)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: []string{"plan"}, Data: [][]Value{{Text(p.explain())}}}, nil
}

// Stmt is a prepared statement: parsed once, executable many times.
type Stmt struct {
	db *DB
	st stmt
}

// Prepare parses sql into a reusable statement.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, st: st}, nil
}

// Exec executes a prepared DDL/INSERT/DELETE.
func (s *Stmt) Exec(args ...Value) (int, error) {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	return s.db.execLocked(s.st, args)
}

// ExecBatch executes a prepared INSERT once per argument row under a
// single writer-lock acquisition: all rows are evaluated up front, written
// to the heap in one batch, applied to each secondary index as a sorted run
// on its own worker, and committed together (group commit — one fsync for
// the whole batch unless a batch is already open via BeginBatch). It
// returns the number of rows inserted. Only INSERT statements are
// supported.
func (s *Stmt) ExecBatch(argRows [][]Value) (int, error) {
	st, ok := s.st.(insertStmt)
	if !ok {
		return 0, fmt.Errorf("sqlmini: ExecBatch supports INSERT statements only")
	}
	if len(argRows) == 0 {
		return 0, nil
	}
	db := s.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, fmt.Errorf("sqlmini: database is closed")
	}
	schema, ok := db.catalog.Tables[st.table]
	if !ok {
		return 0, fmt.Errorf("sqlmini: no such table %s", st.table)
	}
	if err := validateInsert(schema, st); err != nil {
		return 0, err
	}
	want := countParams(st)
	b := &binding{}
	rows := make([][]Value, 0, len(argRows)*len(st.rows))
	for _, args := range argRows {
		if len(args) != want {
			return 0, fmt.Errorf("sqlmini: statement has %d placeholders, got %d args", want, len(args))
		}
		b.args = args
		for _, rx := range st.rows {
			vals, err := evalInsertRow(schema, rx, b)
			if err != nil {
				return 0, err
			}
			rows = append(rows, vals)
		}
	}
	if err := db.insertRows(schema, rows); err != nil {
		return 0, err
	}
	return len(rows), db.maybeCommit()
}

// Query executes a prepared SELECT/EXPLAIN.
func (s *Stmt) Query(args ...Value) (*Rows, error) {
	return s.QueryMode(PlanAuto, args...)
}

// QueryMode executes a prepared SELECT/EXPLAIN under an explicit plan mode.
func (s *Stmt) QueryMode(mode PlanMode, args ...Value) (*Rows, error) {
	return s.QueryModeContext(context.Background(), mode, args...)
}

// QueryModeContext is QueryMode under a context; see
// DB.QueryModeContext for the cancellation contract.
func (s *Stmt) QueryModeContext(ctx context.Context, mode PlanMode, args ...Value) (*Rows, error) {
	return s.db.observedQuery(ctx, s.st, args, mode)
}

// BeginBatch suspends per-statement commits: subsequent writes become
// durable together at CommitBatch. Used for bulk ingest.
func (db *DB) BeginBatch() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.inBatch = true
}

// InBatch reports whether a batch opened by BeginBatch (or left behind by
// a failed write path) is still pending. Callers that hit an error while a
// batch is open must AbortBatch before returning, or every later
// per-statement commit is silently suspended; this accessor lets tests
// pin that invariant down.
func (db *DB) InBatch() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.inBatch
}

// CommitBatch commits everything written since BeginBatch.
func (db *DB) CommitBatch() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.inBatch = false
	return db.commitLocked()
}

// AbortBatch discards everything written since the last commit and
// restores the engine to its committed state: staged WAL images are
// dropped, every buffer pool is emptied (the no-steal policy guarantees
// uncommitted pages never reached the data files), the WAL's committed
// batches are replayed into the data files to recover committed pages that
// lived only in the discarded caches, and every table and index is
// remounted. Prepared statements remain valid. In-memory databases have no
// committed state to return to and report an error.
func (db *DB) AbortBatch() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.inBatch = false
	if db.closed {
		return fmt.Errorf("sqlmini: database is closed")
	}
	if db.log == nil {
		return fmt.Errorf("sqlmini: cannot abort a batch on an in-memory database")
	}
	db.log.DiscardStaged()
	// Replay before discarding the caches: a committed page image may exist
	// only in the WAL and a dirty frame, and replay may extend a data file
	// whose committed tail was never checkpointed. Discard re-derives the
	// page count from the (now restored) file size. Replaying through the
	// log's own handle keeps the abort path inside the injectable file
	// layer (Options.FileFactory).
	if _, err := db.log.Replay(func(img wal.PageImage) error {
		f, ok := db.files[img.File]
		if !ok {
			return fmt.Errorf("unknown file %d in WAL", img.File)
		}
		_, werr := f.WriteAt(img.Data, int64(img.Page)*pager.PageSize)
		return werr
	}); err != nil {
		return fmt.Errorf("sqlmini: abort: %w", err)
	}
	// The remount derives zone maps and statistics from the committed rows.
	for _, name := range db.sortedTableNames() {
		th := db.tables[name]
		if err := th.pg.Discard(); err != nil {
			return err
		}
		if err := db.openHeap(db.catalog.Tables[name], th); err != nil {
			return err
		}
	}
	for _, name := range db.sortedIndexNames() {
		ih := db.indexes[name]
		if err := ih.pg.Discard(); err != nil {
			return err
		}
		tr, err := btree.Open(ih.pg)
		if err != nil {
			return err
		}
		ih.tree = tr
	}
	return nil
}

// maybeCommit commits unless a batch is open.
//
// locks: db.mu
func (db *DB) maybeCommit() error {
	if db.inBatch {
		return nil
	}
	return db.commitLocked()
}

// commitLocked stages dirty page after-images in the WAL and group-commits
// them: the staging layer keeps only the last image per page, and Commit
// writes the whole batch with a single flush and fsync. A commit with no
// dirty pages is skipped entirely — no marker, no fsync. The WAL is the
// only file a commit writes, so its cost follows the batch, not the store.
//
// locks: db.mu
func (db *DB) commitLocked() error {
	if db.log == nil {
		return nil
	}
	logPages := func(id uint16, pg *pager.Pager) error {
		return pg.LogDirty(func(p pager.PageID, data []byte) error {
			return db.log.Stage(id, uint32(p), data)
		})
	}
	for _, name := range db.sortedTableNames() {
		if err := logPages(db.catalog.Tables[name].FileID, db.tables[name].pg); err != nil {
			return err
		}
	}
	for _, name := range db.sortedIndexNames() {
		if err := logPages(db.catalog.Indexes[name].FileID, db.indexes[name].pg); err != nil {
			return err
		}
	}
	if db.log.StagedPages() == 0 {
		return nil
	}
	if err := db.log.Commit(); err != nil {
		return err
	}
	sz, err := db.log.Size()
	if err != nil {
		return err
	}
	if sz > db.checkpointBytes {
		return db.checkpointLocked()
	}
	return nil
}

// Checkpoint flushes all data files and truncates the WAL.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

// checkpointLocked syncs every data file and truncates the WAL. Open also
// calls it once before the DB is published.
//
// locks: db.mu
func (db *DB) checkpointLocked() error {
	for _, name := range db.sortedTableNames() {
		if err := db.tables[name].pg.Sync(); err != nil {
			return err
		}
	}
	for _, name := range db.sortedIndexNames() {
		if err := db.indexes[name].pg.Sync(); err != nil {
			return err
		}
	}
	if db.log != nil {
		return db.log.Truncate()
	}
	return nil
}

// CacheStats aggregates buffer pool counters across all files. It walks
// a dedicated pager list under the list's own mutex instead of taking
// db.mu, so it returns live counters even while a batched write holds
// the writer lock for the whole batch (it used to stall behind the
// batch and then report counters that excluded all of the batch's I/O).
func (db *DB) CacheStats() pager.Stats {
	db.obsMu.Lock()
	pagers := append([]*pager.Pager(nil), db.obsPagers...)
	db.obsMu.Unlock()
	var s pager.Stats
	for _, pg := range pagers {
		x := pg.Stats()
		s.Hits += x.Hits
		s.Misses += x.Misses
		s.Reads += x.Reads
		s.Writes += x.Writes
		s.Evictions += x.Evictions
	}
	return s
}

// Metrics returns a snapshot of the engine metrics registry: query
// counters and the latency histogram plus the source-folded pager, WAL,
// and zone-map counters. Counter values are monotonic across snapshots.
func (db *DB) Metrics() obs.Snapshot { return db.reg.Snapshot() }

// Registry exposes the live metrics registry for the debug endpoint.
func (db *DB) Registry() *obs.Registry { return db.reg }

// TableSizeBytes returns the heap file size of a table — the paper's
// "feature size" metric when the table holds extracted features.
func (db *DB) TableSizeBytes(table string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	th, ok := db.tables[table]
	if !ok {
		return 0, fmt.Errorf("sqlmini: no such table %s", table)
	}
	return th.pg.SizeBytes(), nil
}

// IndexSizeBytes returns the total size of all indexes on a table. The
// paper's "disk size" is TableSizeBytes + IndexSizeBytes.
func (db *DB) IndexSizeBytes(table string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, ok := db.tables[table]; !ok {
		return 0, fmt.Errorf("sqlmini: no such table %s", table)
	}
	var total int64
	for _, ix := range db.catalog.indexesOn(table) {
		total += db.indexes[ix.Name].pg.SizeBytes()
	}
	return total, nil
}

// RowCount returns the number of live rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	th, ok := db.tables[table]
	if !ok {
		return 0, fmt.Errorf("sqlmini: no such table %s", table)
	}
	return th.h.Len(), nil
}

// Tables lists the table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for name := range db.catalog.Tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close commits pending work, checkpoints, and releases all files.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.inBatch = false
	if err := db.commitLocked(); err != nil {
		return err
	}
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	for _, name := range db.sortedTableNames() {
		if err := db.tables[name].pg.Close(); err != nil {
			return err
		}
	}
	for _, name := range db.sortedIndexNames() {
		if err := db.indexes[name].pg.Close(); err != nil {
			return err
		}
	}
	if db.log != nil {
		if err := db.log.Close(); err != nil {
			return err
		}
	}
	db.closed = true
	return nil
}
