package sqlmini

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestColHistSelectivity(t *testing.T) {
	var h colHist
	for i := 0; i < 1000; i++ {
		h.add(float64(i))
	}
	for _, tc := range []struct {
		v    float64
		want float64
	}{
		{-1, 0}, {0, 0}, {999, 1}, {500, 0.5}, {250, 0.25}, {750, 0.75},
	} {
		got := h.selLE(tc.v)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("selLE(%v) = %v, want %v ± 0.05", tc.v, got, tc.want)
		}
	}
	if s := h.selRange(250, 750); math.Abs(s-0.5) > 0.05 {
		t.Errorf("selRange(250, 750) = %v, want 0.5 ± 0.05", s)
	}
	if s := h.selRange(math.Inf(-1), 500); math.Abs(s-0.5) > 0.05 {
		t.Errorf("selRange(-inf, 500) = %v, want 0.5 ± 0.05", s)
	}
	if s := h.selRange(500, math.Inf(1)); math.Abs(s-0.5) > 0.05 {
		t.Errorf("selRange(500, +inf) = %v, want 0.5 ± 0.05", s)
	}
}

func TestColHistRescale(t *testing.T) {
	var h colHist
	// Start narrow, then widen by two orders of magnitude: counts must be
	// preserved exactly and estimates stay sane.
	for i := 0; i < 100; i++ {
		h.add(float64(i))
	}
	h.add(10000)
	if h.Total != 101 {
		t.Fatalf("Total = %d, want 101", h.Total)
	}
	var sum int64
	for _, c := range h.N {
		sum += c
	}
	if sum != 101 {
		t.Fatalf("bucket counts sum to %d after rescale, want 101", sum)
	}
	// ~100 of 101 values are below 5000.
	if s := h.selLE(5000); s < 0.9 {
		t.Errorf("selLE(5000) = %v after rescale, want >= 0.9", s)
	}
}

func TestColHistDegenerate(t *testing.T) {
	var h colHist
	for i := 0; i < 10; i++ {
		h.add(42)
	}
	if s := h.selLE(42); s != 1 {
		t.Errorf("single-value hist selLE(42) = %v, want 1", s)
	}
	if s := h.selLE(41); s != 0 {
		t.Errorf("single-value hist selLE(41) = %v, want 0", s)
	}
	h.add(100) // widen out of the degenerate range
	if h.Total != 11 {
		t.Fatalf("Total = %d", h.Total)
	}
	if s := h.selRange(0, 50); s < 0.8 {
		t.Errorf("selRange(0, 50) = %v after widening, want >= 0.8", s)
	}
}

func TestStatsMaintenance(t *testing.T) {
	db := OpenMemory(Options{})
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b REAL, s TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?)",
			Int(int64(i)), Real(float64(i)/2), Text("x"))
	}
	ts := db.tables["t"].stats
	if cs := ts.Cols["a"]; cs == nil || cs.Min != 0 || cs.Max != 49 {
		t.Errorf("col a stats = %+v, want min 0 max 49", cs)
	}
	if cs := ts.Cols["s"]; cs != nil {
		t.Errorf("TEXT column carries numeric statistics: %+v", cs)
	}
	// The row count the planner uses is the heap's, so deletes show at once.
	if _, err := db.Exec("DELETE FROM t WHERE a < ?", Int(10)); err != nil {
		t.Fatal(err)
	}
	if plan := mustQuery(t, db, "EXPLAIN SELECT * FROM t").Data[0][0].S; !strings.Contains(plan, "rows~40 ") {
		t.Errorf("plan after delete = %q, want 40 estimated rows", plan)
	}
}

// TestStatsCrossover pins the statistics-driven seq-vs-index decision: on
// a populated table an unselective range goes sequential, a selective one
// goes through the index — the crossover of the paper's Figures 17–24,
// chosen from data.
func TestStatsCrossover(t *testing.T) {
	db := OpenMemory(Options{})
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a, b)")
	for i := 0; i < 2000; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", Int(int64(i)), Real(float64(i)))
	}

	wide := mustQuery(t, db, "EXPLAIN SELECT a FROM t WHERE a >= ?", Int(0))
	if plan := wide.Data[0][0].S; !strings.HasPrefix(plan, "SEQ SCAN t") || !strings.Contains(plan, " EST ") {
		t.Errorf("unselective range should cost out to a sequential scan with estimates: %q", plan)
	}
	narrow := mustQuery(t, db, "EXPLAIN SELECT a FROM t WHERE a <= ?", Int(20))
	if plan := narrow.Data[0][0].S; !strings.HasPrefix(plan, "INDEX SCAN t_a ON t") || !strings.Contains(plan, " EST ") {
		t.Errorf("selective range should stay on the index: %q", plan)
	}
	// Forced modes still override the cost model.
	forced := mustQueryMode(t, db, PlanForceIndex, "EXPLAIN SELECT a FROM t WHERE a >= ?", Int(0))
	if plan := forced.Data[0][0].S; !strings.HasPrefix(plan, "INDEX SCAN t_a ON t") {
		t.Errorf("PlanForceIndex ignored: %q", plan)
	}
}

// TestExplainFusedGolden is the golden output test for fused union plans
// with statistics: two branches over the same (table, index) collapse
// into one fused scan with per-branch attribution and cost estimates.
func TestExplainFusedGolden(t *testing.T) {
	db := OpenMemory(Options{})
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a, b)")
	rows := make([][]Value, 0, 1024)
	for i := 0; i < 1024; i++ {
		rows = append(rows, []Value{Int(int64(i)), Real(float64(i % 128))})
	}
	st, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecBatch(rows); err != nil {
		t.Fatal(err)
	}

	got := mustQuery(t, db,
		"EXPLAIN SELECT a, b FROM t WHERE a <= ? AND b <= ? UNION SELECT a, b FROM t WHERE a <= ? AND b >= ?",
		Int(100), Real(4), Int(150), Real(120))
	var lines []string
	for _, row := range got.Data {
		lines = append(lines, row[0].S)
	}
	want := []string{
		"FUSED INDEX SCAN t_a ON t BRANCHES 2 EST sel=0.1474 rows~13",
		"  BRANCH 0: INDEX SCAN t_a ON t BOUNDS(a<~100) FILTER ((a <= ?1) AND (b <= ?2)) EST sel=0.0989 rows~4 cost=8.0",
		"  BRANCH 1: INDEX SCAN t_a ON t BOUNDS(a<~150) FILTER ((a <= ?3) AND (b >= ?4)) EST sel=0.1474 rows~9 cost=12.1",
	}
	if len(lines) != len(want) {
		t.Fatalf("EXPLAIN returned %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n  got  %q\n  want %q", i, lines[i], want[i])
		}
	}
}

// TestFusedUnionIdentity checks, at the engine level, that fused
// execution returns byte-identical results to branch-at-a-time execution
// for unions whose branches overlap, nest, and miss entirely. The
// reference runs each branch as a standalone SELECT — the solo path,
// which never fuses — and merges the results with the UNION's own dedup.
func TestFusedUnionIdentity(t *testing.T) {
	db := OpenMemory(Options{})
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a, b)")
	for i := 0; i < 300; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", Int(int64(i%100)), Real(float64(i)/3))
	}

	type branch struct {
		sql  string
		args []Value
	}
	unions := [][]branch{
		{{"SELECT a, b FROM t WHERE a <= ?", []Value{Int(50)}},
			{"SELECT a, b FROM t WHERE a <= ? AND b >= ?", []Value{Int(80), Real(30)}}},
		{{"SELECT a FROM t WHERE a <= ?", []Value{Int(10)}},
			{"SELECT a FROM t WHERE a >= ?", []Value{Int(90)}},
			{"SELECT a FROM t WHERE a = ?", []Value{Int(50)}}},
		{{"SELECT b FROM t WHERE a = ?", []Value{Int(5)}},
			{"SELECT b FROM t WHERE a = ?", []Value{Int(500)}}}, // matches nothing
	}
	for _, mode := range []PlanMode{PlanAuto, PlanForceScan, PlanForceIndex} {
		for ui, branches := range unions {
			var sqls []string
			var args []Value
			solo := make([]*Rows, len(branches))
			for i, b := range branches {
				sqls = append(sqls, b.sql)
				args = append(args, b.args...)
				solo[i] = mustQueryMode(t, db, mode, b.sql, b.args...)
			}
			want, err := mergeUnion(solo)
			if err != nil {
				t.Fatal(err)
			}
			got := mustQueryMode(t, db, mode, strings.Join(sqls, " UNION "), args...)
			if fmt.Sprintf("%v", got.Data) != fmt.Sprintf("%v", want.Data) {
				t.Errorf("mode %v union %d: fused UNION returned %d rows, its branches run standalone %d",
					mode, ui, got.Len(), want.Len())
			}
		}
	}
}

// tableStatsOf snapshots every table's planner statistics.
func tableStatsOf(db *DB) map[string]*tableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[string]*tableStats{}
	for name, th := range db.tables {
		out[name] = th.stats
	}
	return out
}

// explainAll renders the PlanAuto plan of each query against db.
func explainAll(t *testing.T, db *DB, queries []string) []string {
	t.Helper()
	var out []string
	for _, q := range queries {
		for _, row := range mustQuery(t, db, "EXPLAIN "+q).Data {
			out = append(out, row[0].S)
		}
	}
	return out
}

// TestStatsDerivedAtMount pins statistics as derived state: an
// insert-only database — written through single-row INSERTs, multi-row
// INSERTs and batches, across commits — mounts to statistics deep-equal
// to the ones its inserts built, so every plan and estimate survives a
// reopen unchanged, and catalog.json never carries them.
func TestStatsDerivedAtMount(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insertZoneRows(t, db, "f", 3000)
	mustExec(t, db, "CREATE TABLE s (a INT, b REAL, tag TEXT)")
	mustExec(t, db, "CREATE INDEX s_ab ON s (a, b)")
	for i := 0; i < 400; i++ {
		mustExec(t, db, "INSERT INTO s VALUES (?, ?, 'x')", Int(int64(i*i%977)), Real(float64(i)/7))
	}
	mustExec(t, db, "INSERT INTO s VALUES (-50, 1e4, 'y'), (5000, -3, 'z')")
	mustExec(t, db, "CREATE TABLE empty (a INT)")
	queries := []string{
		"SELECT * FROM f WHERE dv1 <= 40",
		"SELECT * FROM f WHERE dv1 >= 100 AND dv2 < 0",
		"SELECT * FROM f WHERE dv1 <= 2000 UNION SELECT * FROM f WHERE dv1 >= 2900",
		"SELECT a FROM s WHERE a <= 10",
		"SELECT a FROM s WHERE a <= 900 AND b >= 20",
		"SELECT a FROM empty WHERE a <= 1",
	}
	before := tableStatsOf(db)
	plans := explainAll(t, db, queries)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "stats") {
		t.Fatalf("catalog.json carries statistics: %s", data)
	}

	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if after := tableStatsOf(db); !reflect.DeepEqual(before, after) {
		t.Fatal("statistics derived at mount differ from the ones the inserts built")
	}
	if got := explainAll(t, db, queries); !reflect.DeepEqual(plans, got) {
		t.Fatalf("plans changed across a reopen:\nbefore: %q\nafter:  %q", plans, got)
	}
}

// TestStatsExactAfterDeleteReopen checks the other half: deletes leave the
// running statistics wide, and the next mount counts only the live rows.
func TestStatsExactAfterDeleteReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insertZoneRows(t, db, "f", 3000)
	mustExec(t, db, "DELETE FROM f WHERE dv1 <= 1200")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	live, err := db.RowCount("f")
	if err != nil {
		t.Fatal(err)
	}
	if live != 1799 {
		t.Fatalf("f holds %d rows, want 1799", live)
	}
	for name, cs := range tableStatsOf(db)["f"].Cols {
		if cs.Hist.Total != int64(live) {
			t.Errorf("column %s: histogram counts %d rows, heap holds %d", name, cs.Hist.Total, live)
		}
	}
	if cs := tableStatsOf(db)["f"].Cols["dv1"]; cs.Min != 1201 {
		t.Errorf("dv1 minimum %v after reopen, want 1201", cs.Min)
	}
}

func mustQueryMode(t *testing.T, db *DB, mode PlanMode, sql string, args ...Value) *Rows {
	t.Helper()
	r, err := db.QueryMode(mode, sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}
