package sqlmini

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"segdiff/internal/storage/faultfs"
)

// zoneRows generates n feature-like rows whose dv1 grows monotonically,
// so consecutive heap pages cover narrow, disjoint dv1 ranges — the
// shape zone maps prune best (arrival-ordered sensor features).
func zoneRows(n int) [][]Value {
	rows := make([][]Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []Value{
			Real(float64(i)),            // dv1: monotone
			Real(float64(i%97) - 48),    // dv2: oscillating
			Int(int64(i % 13)),          // dt
			Text(fmt.Sprintf("s%d", i)), // tag: TEXT, no zones
		}
	}
	return rows
}

// openZoneDB builds an in-memory table with zone maps populated.
func openZoneDB(t *testing.T, n int) *DB {
	t.Helper()
	db := OpenMemory(Options{})
	insertZoneRows(t, db, "f", n)
	return db
}

// rowSet renders a result as its sorted rows, so a sequential scan and
// an index scan — which return the same rows in different orders —
// compare equal.
func rowSet(r *Rows) []string {
	out := make([]string, len(r.Data))
	for i, row := range r.Data {
		out[i] = fmt.Sprint(row)
	}
	sort.Strings(out)
	return out
}

// forcedIndex runs sql under PlanForceIndex, the reference pruning is
// judged against: an index scan never consults zone maps.
func forcedIndex(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	skipped := db.ZoneSkippedPages()
	rows := mustQueryMode(t, db, PlanForceIndex, sql, args...)
	if db.ZoneSkippedPages() != skipped {
		t.Fatalf("forced-index %s skipped pages by zone map", sql)
	}
	return rows
}

// zoneQueries cover the pruning-relevant shapes: selective and
// unselective ranges, equality, multi-column conjunctions, a predicate
// no zone covers (TEXT), and a statically wide one.
var zoneQueries = []struct {
	sql  string
	args []Value
}{
	{"SELECT * FROM f WHERE dv1 < 50", nil},
	{"SELECT * FROM f WHERE dv1 >= ? AND dv1 < ?", []Value{Real(300), Real(350)}},
	{"SELECT * FROM f WHERE dv1 = 123", nil},
	{"SELECT * FROM f WHERE dv1 < 100 AND dv2 > 40", nil},
	{"SELECT dv1, dt FROM f WHERE dt <= 1 AND dv1 > 4900", nil},
	{"SELECT * FROM f WHERE tag = 's7'", nil},
	{"SELECT * FROM f WHERE dv2 <= 1000", nil},
	{"SELECT * FROM f WHERE dv1 > 100000", nil},
}

// TestZonePruningIdentity compares every query, under both plan modes
// that may prune and as a fused UNION, against the forced-index search of
// the same database: the same rows must come back (pruning is advisory).
func TestZonePruningIdentity(t *testing.T) {
	db := openZoneDB(t, 5000)
	defer db.Close()
	// Deletes leave zone summaries stale-wide; identity must survive them.
	if _, err := db.Exec("DELETE FROM f WHERE dv1 >= 200 AND dv1 < 210"); err != nil {
		t.Fatal(err)
	}
	for _, q := range zoneQueries {
		want := rowSet(forcedIndex(t, db, q.sql, q.args...))
		for _, mode := range []PlanMode{PlanAuto, PlanForceScan} {
			got := rowSet(mustQueryMode(t, db, mode, q.sql, q.args...))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %v %s: pruned %d rows, forced-index %d rows", mode, q.sql, len(got), len(want))
			}
		}
	}
	union := "SELECT * FROM f WHERE dv1 < 40 UNION SELECT * FROM f WHERE dv1 >= 4980 UNION SELECT * FROM f WHERE dv1 = 2500"
	want := rowSet(forcedIndex(t, db, union))
	if got := rowSet(mustQueryMode(t, db, PlanForceScan, union)); !reflect.DeepEqual(got, want) {
		t.Fatalf("fused union: pruned %d rows, forced-index %d rows", len(got), len(want))
	}
	if db.ZoneSkippedPages() == 0 {
		t.Fatal("identity suite never exercised pruning")
	}
}

// TestZonePruningSkipsPages checks effectiveness: a selective range on
// the monotone column must skip most pages and read fewer pages than a
// full scan, while returning exactly the matching rows.
func TestZonePruningSkipsPages(t *testing.T) {
	db := openZoneDB(t, 5000)
	defer db.Close()
	coldPools(t, db)
	before := db.CacheStats()
	rows, err := db.QueryMode(PlanForceScan, "SELECT * FROM f WHERE dv1 < 50")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 50 {
		t.Fatalf("got %d rows, want 50", rows.Len())
	}
	after := db.CacheStats()
	skipped := db.ZoneSkippedPages()
	if skipped == 0 {
		t.Fatal("no pages skipped by zone map")
	}
	heapPages, err := db.TableSizeBytes("f")
	if err != nil {
		t.Fatal(err)
	}
	nPages := uint64(heapPages) / 4096
	readPages := after.Reads - before.Reads
	if readPages+skipped < nPages {
		t.Fatalf("accounting: read %d + skipped %d < %d heap pages", readPages, skipped, nPages)
	}
	if readPages >= nPages {
		t.Fatalf("pruned cold scan still read %d of %d pages", readPages, nPages)
	}
}

// TestZoneExplain checks the EXPLAIN annotations for the new I/O layer.
func TestZoneExplain(t *testing.T) {
	db := openZoneDB(t, 1000)
	defer db.Close()
	rows, err := db.QueryMode(PlanForceScan, "EXPLAIN SELECT * FROM f WHERE dv1 < 50")
	if err != nil {
		t.Fatal(err)
	}
	plan := rows.Data[0][0].S
	want := "SEQ SCAN f ZONEMAP FILTER"
	if len(plan) < len(want) || plan[:len(want)] != want {
		t.Fatalf("plan = %q, want prefix %q", plan, want)
	}
	// A TEXT-only predicate has no estimable ranges: no ZONEMAP marker.
	rows, err = db.QueryMode(PlanForceScan, "EXPLAIN SELECT * FROM f WHERE tag = 's1'")
	if err != nil {
		t.Fatal(err)
	}
	plan = rows.Data[0][0].S
	want = "SEQ SCAN f FILTER"
	if len(plan) < len(want) || plan[:len(want)] != want {
		t.Fatalf("plan = %q, want prefix %q", plan, want)
	}
}

// insertZoneRows creates table name with the zoneRows schema and an index
// on dv1, and commits n rows into it.
func insertZoneRows(t *testing.T, db *DB, name string, n int) *Stmt {
	t.Helper()
	mustExec(t, db, "CREATE TABLE "+name+" (dv1 REAL, dv2 REAL, dt INT, tag TEXT)")
	mustExec(t, db, "CREATE INDEX "+name+"_dv1 ON "+name+" (dv1)")
	st, err := db.Prepare("INSERT INTO " + name + " VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecBatch(zoneRows(n)); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkZonesExact asserts, for every table, what a mounted table
// guarantees: each summary covers its page's live rows, pruned forced
// scans return exactly what forced-index searches do, and the planner's
// row estimate equals the heap's live count.
func checkZonesExact(t *testing.T, db *DB, label string) {
	t.Helper()
	if err := db.CheckZones(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, table := range db.Tables() {
		live, err := db.RowCount(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range zoneQueries {
			sql := strings.Replace(q.sql, "FROM f", "FROM "+table, 1)
			pruned := rowSet(mustQueryMode(t, db, PlanForceScan, sql, q.args...))
			plain := rowSet(forcedIndex(t, db, sql, q.args...))
			if !reflect.DeepEqual(pruned, plain) {
				t.Fatalf("%s: %s: pruned %d rows, forced-index %d rows", label, sql, len(pruned), len(plain))
			}
		}
		plan := mustQuery(t, db, "EXPLAIN SELECT * FROM "+table).Data[0][0].S
		if live > 0 && !strings.Contains(plan, fmt.Sprintf("rows~%d ", live)) {
			t.Fatalf("%s: plan %q does not estimate the %d live rows", label, plan, live)
		}
	}
}

// TestZonesRebuiltAtMount checks that zone maps, which are never written
// anywhere, are derived again from the heap at reopen: pruning works at
// once, later inserts keep extending them, and summaries a delete left
// stale-wide come back tight.
func TestZonesRebuiltAtMount(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insertZoneRows(t, db, "f", 3000)
	// Hollow out the middle of the table: the summaries stay wide until
	// the next mount.
	mustExec(t, db, "DELETE FROM f WHERE dv1 >= 1000 AND dv1 < 2000")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "zones") {
		t.Fatal("catalog.json still carries zone maps")
	}

	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkZonesExact(t, db, "after reopen")
	rows := mustQueryMode(t, db, PlanForceScan, "SELECT * FROM f WHERE dv1 < 30")
	if rows.Len() != 30 {
		t.Fatalf("got %d rows, want 30", rows.Len())
	}
	if db.ZoneSkippedPages() == 0 {
		t.Fatal("rebuilt zone maps did not prune after reopen")
	}
	// dv2 oscillates over [-48, 48] on every page, so before the reopen no
	// page could be pruned on it; the emptied pages now can.
	before := db.ZoneSkippedPages()
	mustQueryMode(t, db, PlanForceScan, "SELECT * FROM f WHERE dv2 > 47 AND dv1 >= 0")
	if db.ZoneSkippedPages() == before {
		t.Fatal("pages emptied by DELETE were not tightened by the remount")
	}
	// Zones keep extending for new batches after reopen.
	st, err := db.Prepare("INSERT INTO f VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecBatch([][]Value{{Real(1e6), Real(0), Int(0), Text("x")}}); err != nil {
		t.Fatal(err)
	}
	rows = mustQueryMode(t, db, PlanForceScan, "SELECT * FROM f WHERE dv1 >= 1000000")
	if rows.Len() != 1 {
		t.Fatalf("got %d rows, want 1", rows.Len())
	}
	checkZonesExact(t, db, "after post-reopen insert")
}

// TestOldCatalogReopensFullyPrunable pins the upgrade path: a store whose
// catalog.json was written before zone maps and statistics left it
// (indented, with "zones" and "stats" keys — here deliberately wrong, far
// too narrow) loads, ignores both keys, prunes and plans from state
// derived at mount, and drops the keys at the next DDL save.
func TestOldCatalogReopensFullyPrunable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insertZoneRows(t, db, "f", 3000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, catalogFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	old["zones"] = map[string]any{"f": map[string]any{"cols": map[string]any{
		"dv1": map[string]any{"min": []float64{5, 5, 5}, "max": []float64{6, 6, 6}},
	}}}
	old["stats"] = map[string]any{"f": map[string]any{"cols": map[string]any{
		"dv1": map[string]any{"min": 5, "max": 6, "hist": map[string]any{
			"lo": 5, "hi": 6, "n": []int64{7}, "total": 7}},
	}}}
	if data, err = json.MarshalIndent(old, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkZonesExact(t, db, "old catalog")
	if db.ZoneSkippedPages() == 0 {
		t.Fatal("store with an old catalog did not prune")
	}
	if cs := tableStatsOf(db)["f"].Cols["dv1"]; cs.Hist.Total != 3000 || cs.Max != 2999 {
		t.Fatalf("dv1 statistics came from the old catalog: %+v", cs)
	}
	mustExec(t, db, "INSERT INTO f VALUES (7e5, 0, 0, 'new')")
	mustExec(t, db, "CREATE TABLE h (a INT)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "zones") || strings.Contains(string(data), "stats") {
		t.Fatalf("the DDL save kept an old key: %s", data)
	}
}

// TestAbortRestoresZonesAndStats drives the abort path the write pipeline
// really takes — rows already in the heap and folded into statistics and
// zone maps when an index apply fails — and checks AbortBatch puts both
// back without reading catalog.json: summaries exact on every table, row
// estimates equal to the live count, statistics equal to those a fresh
// open of the durable image derives, and the same again after a further
// commit and a reopen.
func TestAbortRestoresZonesAndStats(t *testing.T) {
	dir := t.TempDir()
	reg := faultfs.New(1)
	opts := Options{FileFactory: reg.Open, PoolPages: 16, WriteWorkers: 1}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	stF := insertZoneRows(t, db, "f", 2000)
	insertZoneRows(t, db, "g", 700)
	checkZonesExact(t, db, "before abort")
	saved := db.catalogSaves.Load()

	// Cold cache: the batch reads the heap's tail page, then the index
	// root — fail that second read.
	coldPools(t, db)
	reg.SetScript(faultfs.Script{FailReadOp: reg.Reads() + 2})
	db.BeginBatch()
	doomed := [][]Value{{Real(-5e6), Real(9e6), Int(77), Text("aborted")}}
	if _, err := stF.ExecBatch(doomed); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("index apply survived the scripted read fault: %v", err)
	}
	dv1 := func() *colStats { return tableStatsOf(db)["f"].Cols["dv1"] }
	if dv1().Min != -5e6 {
		t.Fatal("the fault fired before the row was folded into the statistics")
	}
	// catalog.json must play no part in the rollback.
	catPath := filepath.Join(dir, catalogFile)
	if err := os.Rename(catPath, catPath+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := db.AbortBatch(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(catPath+".aside", catPath); err != nil {
		t.Fatal(err)
	}
	if n := db.catalogSaves.Load(); n != saved {
		t.Fatalf("abort path saved the catalog (%d -> %d)", saved, n)
	}
	checkZonesExact(t, db, "after abort")
	if rows := mustQuery(t, db, "SELECT * FROM f WHERE dv1 <= -1000000"); rows.Len() != 0 {
		t.Fatal("aborted row visible")
	}
	if cs := dv1(); cs.Min != 0 || cs.Hist.Total != 2000 {
		t.Fatalf("dv1 statistics kept the aborted row: %+v", cs)
	}
	fresh, err := Open(dir, Options{FileFactory: faultfs.NewFromSnapshot(1, reg.Snapshot()).Open})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableStatsOf(db), tableStatsOf(fresh)) {
		t.Error("statistics after abort differ from a fresh open of the durable image")
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := stF.ExecBatch([][]Value{{Real(5e5), Real(1), Int(1), Text("kept")}}); err != nil {
		t.Fatal(err)
	}
	checkZonesExact(t, db, "after post-abort commit")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkZonesExact(t, db, "after reopen")
	if n, _ := db.RowCount("f"); n != 2001 {
		t.Fatalf("f holds %d rows after reopen, want 2001", n)
	}
}

// TestCheckZonesFiresOnSkippedRebuild tests the tester: a table mounted
// without the rebuild (empty summaries over a populated heap) fails
// CheckZones, and once an insert lands on its tail page the narrow
// summary makes pruning lose the older rows — the false negative the
// check exists to catch.
func TestCheckZonesFiresOnSkippedRebuild(t *testing.T) {
	db := openZoneDB(t, 500)
	defer db.Close()
	if err := db.CheckZones(); err != nil {
		t.Fatal(err)
	}
	db.SkipZoneRebuildForTest("f")
	if err := db.CheckZones(); err == nil {
		t.Fatal("CheckZones passed a table with no summaries over live rows")
	}
	mustExec(t, db, "INSERT INTO f VALUES (9e5, 0, 0, 'new')")
	rows := mustQueryMode(t, db, PlanForceScan, "SELECT * FROM f WHERE dv1 < 1000")
	if rows.Len() == 500 {
		t.Fatal("seeded bug did not lose rows; the test no longer seeds what it claims")
	}
}
