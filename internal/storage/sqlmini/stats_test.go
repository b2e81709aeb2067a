package sqlmini

import (
	"fmt"
	"math"
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
	ts := db.catalog.Stats["t"]
	if ts == nil {
		t.Fatal("no statistics for t")
	}
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
// for unions whose branches overlap, nest, and miss entirely.
func TestFusedUnionIdentity(t *testing.T) {
	mk := func(opts Options) *DB {
		db := OpenMemory(opts)
		mustExec(t, db, "CREATE TABLE t (a INT, b REAL)")
		mustExec(t, db, "CREATE INDEX t_a ON t (a, b)")
		for i := 0; i < 300; i++ {
			mustExec(t, db, "INSERT INTO t VALUES (?, ?)", Int(int64(i%100)), Real(float64(i)/3))
		}
		return db
	}
	fused := mk(Options{})
	defer fused.Close()
	branch := mk(Options{DisableFusion: true})
	defer branch.Close()

	queries := []struct {
		sql  string
		args []Value
	}{
		{"SELECT a, b FROM t WHERE a <= ? UNION SELECT a, b FROM t WHERE a <= ? AND b >= ?",
			[]Value{Int(50), Int(80), Real(30)}},
		{"SELECT a FROM t WHERE a <= ? UNION SELECT a FROM t WHERE a >= ? UNION SELECT a FROM t WHERE a = ?",
			[]Value{Int(10), Int(90), Int(50)}},
		{"SELECT b FROM t WHERE a = ? UNION SELECT b FROM t WHERE a = ?",
			[]Value{Int(5), Int(500)}}, // second branch matches nothing
	}
	for _, mode := range []PlanMode{PlanAuto, PlanForceScan, PlanForceIndex} {
		for qi, q := range queries {
			a, err := fused.QueryMode(mode, q.sql, q.args...)
			if err != nil {
				t.Fatalf("mode %v query %d fused: %v", mode, qi, err)
			}
			b, err := branch.QueryMode(mode, q.sql, q.args...)
			if err != nil {
				t.Fatalf("mode %v query %d branch: %v", mode, qi, err)
			}
			if fmt.Sprintf("%v", a.Data) != fmt.Sprintf("%v", b.Data) {
				t.Errorf("mode %v query %d: fused and branch-at-a-time results differ\nfused:  %v\nbranch: %v",
					mode, qi, a.Data, b.Data)
			}
		}
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
