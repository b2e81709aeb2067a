package sqlmini

import (
	"strings"
	"sync"
	"testing"
	"time"

	"segdiff/internal/obs"
)

// analyzeFixture builds the shared EXPLAIN ANALYZE fixture: 1024 rows
// (i, i%128) under a composite index — the same table the EXPLAIN
// goldens in stats_test.go use, so the ANALYZE goldens line up with
// them. Column a is inserted in ascending order, which makes the heap's
// per-page zone maps selective on a and useless on b (every page spans
// nearly the full 0..127 range of b).
func analyzeFixture(t *testing.T, opts Options) *DB {
	t.Helper()
	db := OpenMemory(opts)
	t.Cleanup(func() { db.Close() })
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
	return db
}

// analyzeLines runs an EXPLAIN ANALYZE statement and returns its rendered
// lines with the volatile wall-time field normalized.
func analyzeLines(t *testing.T, db *DB, mode PlanMode, sql string, args ...Value) []string {
	t.Helper()
	r := mustQueryMode(t, db, mode, sql, args...)
	var lines []string
	for _, row := range r.Data {
		lines = append(lines, obs.NormalizeWall(row[0].S))
	}
	return lines
}

func diffLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n  got  %q\n  want %q", i, got[i], want[i])
		}
	}
}

// TestExplainAnalyzeGoldenSeq pins the annotated sequential plan. The
// predicate is on b, where ascending-a inserts leave every full heap
// page spanning nearly the whole 0..127 range of b, so the zone maps
// prune almost nothing: only the 4-row tail page (b in 124..127) is
// skipped, and the 5 full pages' 1020 rows are all examined.
func TestExplainAnalyzeGoldenSeq(t *testing.T) {
	db := analyzeFixture(t, Options{})
	got := analyzeLines(t, db, PlanForceScan,
		"EXPLAIN ANALYZE SELECT a FROM t WHERE b <= ?", Real(4))
	want := []string{
		"SEQ SCAN t ZONEMAP FILTER (b <= ?1) EST sel=1.0000 rows~39 cost=16.2 " +
			"(actual rows=40 examined=1020 pages_read=0 pages_hit=5 zone_skipped=1 wall=X est_rows=39)",
	}
	diffLines(t, got, want)
}

// TestExplainAnalyzeGoldenZoneMapPruned pins the pruned sequential
// plan: a is inserted in ascending order, so the range a < 100 keeps
// only the first heap page (rows 0..203) and the zone maps skip the
// other five without reading them.
func TestExplainAnalyzeGoldenZoneMapPruned(t *testing.T) {
	db := analyzeFixture(t, Options{})
	got := analyzeLines(t, db, PlanForceScan,
		"EXPLAIN ANALYZE SELECT a FROM t WHERE a < ?", Int(100))
	want := []string{
		"SEQ SCAN t ZONEMAP FILTER (a < ?1) EST sel=1.0000 rows~101 cost=16.2 " +
			"(actual rows=100 examined=204 pages_read=0 pages_hit=1 zone_skipped=5 wall=X est_rows=101)",
	}
	diffLines(t, got, want)
}

// TestExplainAnalyzeGoldenIndex pins the annotated index plan: the scan
// examines every entry inside the key bounds (a <= 100), and the key
// filter on (a, b) reduces them to the 5 matching rows.
func TestExplainAnalyzeGoldenIndex(t *testing.T) {
	db := analyzeFixture(t, Options{})
	got := analyzeLines(t, db, PlanAuto,
		"EXPLAIN ANALYZE SELECT a, b FROM t WHERE a <= ? AND b <= ?", Int(100), Real(4))
	want := []string{
		"INDEX SCAN t_a ON t BOUNDS(a<~100) FILTER ((a <= ?1) AND (b <= ?2)) EST sel=0.0989 rows~4 cost=8.0 " +
			"(actual rows=5 examined=101 pages_read=0 pages_hit=8 zone_skipped=0 wall=X est_rows=4)",
	}
	diffLines(t, got, want)
}

// TestExplainAnalyzeGoldenFusedUnion pins the fused union trace: the
// same statement as TestExplainFusedGolden, now annotated. Rows are
// attributed per branch; page I/O lives on the unit node because the
// branches share one scan.
func TestExplainAnalyzeGoldenFusedUnion(t *testing.T) {
	db := analyzeFixture(t, Options{})
	got := analyzeLines(t, db, PlanAuto,
		"EXPLAIN ANALYZE SELECT a, b FROM t WHERE a <= ? AND b <= ? UNION SELECT a, b FROM t WHERE a <= ? AND b >= ?",
		Int(100), Real(4), Int(150), Real(120))
	want := []string{
		"FUSED INDEX SCAN t_a ON t BRANCHES 2 EST sel=0.1474 rows~13 " +
			"(actual rows=13 examined=252 pages_read=0 pages_hit=17 zone_skipped=0 wall=X est_rows=13)",
		"  BRANCH 0: INDEX SCAN t_a ON t BOUNDS(a<~100) FILTER ((a <= ?1) AND (b <= ?2)) EST sel=0.0989 rows~4 cost=8.0 " +
			"(actual rows=5 examined=101 pages_read=0 pages_hit=0 zone_skipped=0 wall=X est_rows=4)",
		"  BRANCH 1: INDEX SCAN t_a ON t BOUNDS(a<~150) FILTER ((a <= ?3) AND (b >= ?4)) EST sel=0.1474 rows~9 cost=12.1 " +
			"(actual rows=8 examined=151 pages_read=0 pages_hit=0 zone_skipped=0 wall=X est_rows=9)",
	}
	diffLines(t, got, want)
}

// TestExplainAnalyzeEstimateVsActualSkew pins estimate-vs-actual on
// skewed data: 900 of 1024 rows share a=0, so the histogram's uniform
// bucket assumption misestimates a point-heavy range while the trace
// reports the true count next to it.
func TestExplainAnalyzeEstimateVsActualSkew(t *testing.T) {
	db := OpenMemory(Options{})
	defer db.Close()
	mustExec(t, db, "CREATE TABLE s (a INT)")
	mustExec(t, db, "CREATE INDEX s_a ON s (a)")
	rows := make([][]Value, 0, 1024)
	for i := 0; i < 1024; i++ {
		v := int64(0)
		if i >= 900 {
			v = int64(i)
		}
		rows = append(rows, []Value{Int(v)})
	}
	st, err := db.Prepare("INSERT INTO s VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecBatch(rows); err != nil {
		t.Fatal(err)
	}

	tr, err := db.ExplainAnalyze(PlanAuto, "SELECT a FROM s WHERE a <= ?", Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 {
		t.Fatalf("trace has %d nodes, want 1", len(tr.Nodes))
	}
	n := tr.Nodes[0]
	if n.RowsReturned != 900 {
		t.Fatalf("actual rows = %d, want 900", n.RowsReturned)
	}
	if n.EstRows < 0 {
		t.Fatalf("planner produced no estimate: %+v", n)
	}
	// The whole point of surfacing est_rows: on skew the estimate is off
	// by a wide margin, and the trace shows both numbers side by side.
	if n.EstRows >= n.RowsReturned {
		t.Errorf("histogram estimate %d should underestimate the skewed actual %d", n.EstRows, n.RowsReturned)
	}
}

// TestAnalyzeRowInvariants checks the row-counter invariants the trace
// must uphold on every plan shape: a node never returns more rows than
// it examined, a fused unit's counters are exactly the sum of its
// branches, and the reported result row count matches a plain execution
// of the same statement.
func TestAnalyzeRowInvariants(t *testing.T) {
	db := analyzeFixture(t, Options{})
	queries := []struct {
		sql  string
		args []Value
	}{
		{"SELECT a FROM t WHERE b <= ?", []Value{Real(4)}},
		{"SELECT a, b FROM t WHERE a <= ? AND b <= ?", []Value{Int(100), Real(4)}},
		{"SELECT a, b FROM t WHERE a <= ? AND b <= ? UNION SELECT a, b FROM t WHERE a <= ? AND b >= ?",
			[]Value{Int(100), Real(4), Int(150), Real(120)}},
		{"SELECT a FROM t WHERE a <= ? UNION SELECT a FROM t WHERE a >= ? UNION SELECT a FROM t WHERE a = ?",
			[]Value{Int(10), Int(900), Int(50)}},
		{"SELECT a FROM t WHERE a = ?", []Value{Int(5000)}}, // empty result
	}
	for _, mode := range []PlanMode{PlanAuto, PlanForceScan, PlanForceIndex} {
		for _, q := range queries {
			tr, err := db.ExplainAnalyze(mode, q.sql, q.args...)
			if err != nil {
				t.Fatalf("mode %v %s: %v", mode, q.sql, err)
			}
			var walk func(n *obs.TraceNode)
			walk = func(n *obs.TraceNode) {
				if n.RowsReturned > n.RowsExamined {
					t.Errorf("mode %v %s: node %q returned %d > examined %d",
						mode, q.sql, n.Plan, n.RowsReturned, n.RowsExamined)
				}
				if len(n.Children) > 0 {
					var ex, ret int64
					for _, c := range n.Children {
						walk(c)
						ex += c.RowsExamined
						ret += c.RowsReturned
					}
					if ex != n.RowsExamined || ret != n.RowsReturned {
						t.Errorf("mode %v %s: unit %q (examined=%d returned=%d) != branch sums (%d, %d)",
							mode, q.sql, n.Plan, n.RowsExamined, n.RowsReturned, ex, ret)
					}
				}
			}
			for _, n := range tr.Nodes {
				walk(n)
			}
			plain := mustQueryMode(t, db, mode, q.sql, q.args...)
			if tr.Rows != plain.Len() {
				t.Errorf("mode %v %s: trace rows=%d, plain execution %d", mode, q.sql, tr.Rows, plain.Len())
			}
			// UNION dedup can only shrink the branch outputs.
			if int64(tr.Rows) > tr.RowsReturnedTotal() && tr.RowsReturnedTotal() > 0 {
				t.Errorf("mode %v %s: merged rows %d exceed branch returns %d",
					mode, q.sql, tr.Rows, tr.RowsReturnedTotal())
			}
		}
	}
}

// TestAnalyzePageDeltaMatchesPager checks that per-node page attribution
// is conservation-exact: on an otherwise idle database, the traced
// PagesRead over the whole tree equals the buffer-pool Reads delta the
// query caused, and the pool identities hold before and after.
func TestAnalyzePageDeltaMatchesPager(t *testing.T) {
	db := analyzeFixture(t, Options{})
	for _, q := range []struct {
		mode PlanMode
		sql  string
		args []Value
	}{
		{PlanForceScan, "SELECT a FROM t WHERE b <= ?", []Value{Real(4)}},
		{PlanForceIndex, "SELECT a, b FROM t WHERE a <= ? AND b <= ?", []Value{Int(100), Real(4)}},
		{PlanAuto, "SELECT a, b FROM t WHERE a <= ? AND b <= ? UNION SELECT a, b FROM t WHERE a <= ? AND b >= ?",
			[]Value{Int(100), Real(4), Int(150), Real(120)}},
	} {
		coldPools(t, db)
		base := db.CacheStats()
		tr, err := db.ExplainAnalyze(q.mode, q.sql, q.args...)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		cur := db.CacheStats()
		if delta := cur.Reads - base.Reads; tr.PagesReadTotal() != delta {
			t.Errorf("%s: trace pages_read=%d, pool Reads delta=%d", q.sql, tr.PagesReadTotal(), delta)
		}
		if tr.PagesReadTotal() == 0 {
			t.Errorf("%s: cold query read no pages", q.sql)
		}
		if cur.Reads != cur.Misses {
			t.Errorf("%s: Reads=%d != Misses=%d", q.sql, cur.Reads, cur.Misses)
		}
	}
}

// TestMetricsSnapshotMonotonic checks that registry counters never move
// backwards across queries, that the query counters advance by exactly
// one per observed query, and that the folded pager counters keep the
// pool identity (every file read is a miss).
func TestMetricsSnapshotMonotonic(t *testing.T) {
	db := analyzeFixture(t, Options{})
	prev := db.Metrics()
	for i := 0; i < 5; i++ {
		if i == 2 {
			coldPools(t, db)
		}
		mustQuery(t, db, "SELECT a FROM t WHERE a <= ?", Int(int64(10*i)))
		snap := db.Metrics()
		if r, m := snap.Counter("pager.reads"), snap.Counter("pager.misses"); r != m {
			t.Fatalf("pager.reads %d != pager.misses %d", r, m)
		}
		for _, name := range prev.Names() {
			if snap.Counter(name) < prev.Counter(name) {
				t.Fatalf("counter %s went backwards: %d -> %d", name, prev.Counter(name), snap.Counter(name))
			}
		}
		if got, want := snap.Counter("engine.queries"), prev.Counter("engine.queries")+1; got != want {
			t.Fatalf("engine.queries after query %d = %d, want %d", i, got, want)
		}
		prev = snap
	}
}

// TestCacheStatsMidBatch is the regression test for the stale-counter
// fix: CacheStats must return live numbers even while a writer holds the
// database's exclusive lock for a whole batch (it used to block behind
// db.mu and then report counters that excluded the batch's I/O).
func TestCacheStatsMidBatch(t *testing.T) {
	db := analyzeFixture(t, Options{})
	// Simulate being mid-batch: hold the exclusive lock like a batched
	// INSERT does for its full duration.
	db.mu.Lock()
	type result struct {
		reads uint64
	}
	done := make(chan result, 1)
	go func() {
		cs := db.CacheStats()
		done <- result{cs.Reads}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		db.mu.Unlock()
		t.Fatal("CacheStats blocked behind the exclusive writer lock")
	}
	// Metrics snapshots fold the same pager sources and must not block
	// either.
	go func() {
		db.Metrics()
		done <- result{}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		db.mu.Unlock()
		t.Fatal("Metrics blocked behind the exclusive writer lock")
	}
	db.mu.Unlock()
}

// TestObsConcurrentStress hammers every observability read path while
// writers ingest and readers query — run under -race in CI, it is the
// data-race canary for the registry and trace machinery.
func TestObsConcurrentStress(t *testing.T) {
	db := OpenMemory(Options{})
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a, b)")
	ins, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}

	const writers, batches, batchRows = 2, 20, 25
	stop := make(chan struct{})
	var writeWG, readWG sync.WaitGroup

	var next int64
	var nextMu sync.Mutex
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for b := 0; b < batches; b++ {
				rows := make([][]Value, 0, batchRows)
				nextMu.Lock()
				base := next
				next += batchRows
				nextMu.Unlock()
				for i := int64(0); i < batchRows; i++ {
					rows = append(rows, []Value{Int(base + i), Real(float64((base + i) % 64))})
				}
				if _, err := ins.ExecBatch(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Each reader runs a floor of iterations so the observability paths
	// are exercised even if the ingest finishes first, then keeps going
	// until the writers are done so the runs genuinely overlap.
	const minIters = 50
	spin := func(f func() error) {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for i := 0; ; i++ {
				if i >= minIters {
					select {
					case <-stop:
						return
					default:
					}
				}
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	spin(func() error {
		_, err := db.Query("SELECT a FROM t WHERE a <= ? UNION SELECT a FROM t WHERE b >= ?", Int(100), Real(60))
		return err
	})
	spin(func() error {
		_, err := db.ExplainAnalyze(PlanAuto, "SELECT a FROM t WHERE a <= ?", Int(50))
		return err
	})
	spin(func() error {
		snap := db.Metrics()
		_ = snap.Counter("engine.queries")
		db.CacheStats()
		return nil
	})

	// The readers overlap the whole bounded ingest, then wind down.
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	snap := db.Metrics()
	if snap.Counter("engine.queries") == 0 {
		t.Error("engine.queries stayed zero during the stress run")
	}
}
