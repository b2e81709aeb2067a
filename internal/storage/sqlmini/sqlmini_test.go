package sqlmini

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func memDB(t *testing.T) *DB {
	t.Helper()
	return OpenMemory(Options{PoolPages: 128})
}

// coldPools checkpoints db and then empties every buffer pool, so the
// next query reads each page it touches from the files. (Reopening a
// store does not do this: mount reads every heap through its pool.)
func coldPools(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, th := range db.tables {
		if err := th.pg.Discard(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ih := range db.indexes {
		if err := ih.pg.Discard(); err != nil {
			t.Fatal(err)
		}
	}
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) int {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	r, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return r
}

func TestCreateInsertSelect(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE obs (t INT, v REAL, sensor TEXT)")
	mustExec(t, db, "INSERT INTO obs VALUES (100, 21.5, 'a')")
	mustExec(t, db, "INSERT INTO obs VALUES (200, -3.25, 'b')")
	r := mustQuery(t, db, "SELECT * FROM obs")
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	if got := r.Columns; strings.Join(got, ",") != "t,v,sensor" {
		t.Fatalf("columns = %v", got)
	}
	if r.Data[0][0] != Int(100) || r.Data[0][1] != Real(21.5) || r.Data[0][2] != Text("a") {
		t.Fatalf("row 0 = %v", r.Data[0])
	}
}

func TestWhereFilters(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE n (x INT, y REAL)")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO n VALUES (?, ?)", Int(int64(i)), Real(float64(i)*0.5))
	}
	r := mustQuery(t, db, "SELECT x FROM n WHERE x >= 90 AND y < 47.5")
	if r.Len() != 5 { // x in 90..94
		t.Fatalf("rows = %d: %v", r.Len(), r.Data)
	}
	r = mustQuery(t, db, "SELECT x FROM n WHERE x = 17 OR x = 40")
	if r.Len() != 2 {
		t.Fatalf("OR rows = %d", r.Len())
	}
	r = mustQuery(t, db, "SELECT x FROM n WHERE NOT (x < 98)")
	if r.Len() != 2 {
		t.Fatalf("NOT rows = %d", r.Len())
	}
}

func TestExpressionsInSelect(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE e (a REAL, b REAL)")
	mustExec(t, db, "INSERT INTO e VALUES (10.0, 4.0)")
	r := mustQuery(t, db, "SELECT a + b, a - b, a * b, a / b, -a FROM e")
	want := []Value{Real(14), Real(6), Real(40), Real(2.5), Real(-10)}
	for i, w := range want {
		if r.Data[0][i] != w {
			t.Fatalf("expr %d = %v, want %v", i, r.Data[0][i], w)
		}
	}
}

func TestLineQueryExpression(t *testing.T) {
	// The paper's line query uses interpolation arithmetic in WHERE.
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE seg (dt1 INT, dv1 REAL, dt2 INT, dv2 REAL)")
	mustExec(t, db, "INSERT INTO seg VALUES (10, 1.0, 30, -5.0)") // crosses V=-3 between
	mustExec(t, db, "INSERT INTO seg VALUES (10, 1.0, 30, 2.0)")  // stays above
	// At T=25 the first edge evaluates to 1 − 0.3·15 = −3.5 ≤ −3: it
	// crosses into the region before Δt = T.
	r := mustQuery(t, db,
		"SELECT dt1 FROM seg WHERE dt1 <= ? AND dv1 > ? AND dt2 > ? AND dv2 <= ? AND dv1 + (dv2 - dv1) / (dt2 - dt1) * (? - dt1) <= ?",
		Int(25), Real(-3), Int(25), Real(-3), Int(25), Real(-3))
	if r.Len() != 1 {
		t.Fatalf("line query rows = %d", r.Len())
	}
}

func TestIntegerArithmetic(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE i (a INT, b INT)")
	mustExec(t, db, "INSERT INTO i VALUES (7, 2)")
	r := mustQuery(t, db, "SELECT a / b, a * b + 1 FROM i")
	if r.Data[0][0] != Int(3) || r.Data[0][1] != Int(15) {
		t.Fatalf("int arith = %v", r.Data[0])
	}
	if _, err := db.Query("SELECT a / 0 FROM i"); err == nil {
		t.Fatal("integer division by zero accepted")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE s (x INT, y REAL)")
	vals := []int64{5, 1, 9, 3, 7}
	for _, v := range vals {
		mustExec(t, db, "INSERT INTO s VALUES (?, ?)", Int(v), Real(float64(-v)))
	}
	r := mustQuery(t, db, "SELECT x FROM s ORDER BY x")
	got := []int64{}
	for _, row := range r.Data {
		got = append(got, row[0].I)
	}
	if fmt.Sprint(got) != "[1 3 5 7 9]" {
		t.Fatalf("order asc = %v", got)
	}
	r = mustQuery(t, db, "SELECT x FROM s ORDER BY y ASC, x DESC LIMIT 2")
	if r.Len() != 2 || r.Data[0][0] != Int(9) || r.Data[1][0] != Int(7) {
		t.Fatalf("order desc limit = %v", r.Data)
	}
	r = mustQuery(t, db, "SELECT x FROM s LIMIT 3")
	if r.Len() != 3 {
		t.Fatalf("limit = %d", r.Len())
	}
	r = mustQuery(t, db, "SELECT x FROM s LIMIT 0")
	if r.Len() != 0 {
		t.Fatalf("limit 0 = %d", r.Len())
	}
}

func TestAggregates(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE a (x INT, y REAL)")
	for i := 1; i <= 10; i++ {
		mustExec(t, db, "INSERT INTO a VALUES (?, ?)", Int(int64(i)), Real(float64(i)))
	}
	r := mustQuery(t, db, "SELECT COUNT(*), SUM(y), MIN(x), MAX(x), AVG(y) FROM a")
	row := r.Data[0]
	if row[0] != Int(10) || row[1] != Real(55) || row[2] != Int(1) || row[3] != Int(10) || row[4] != Real(5.5) {
		t.Fatalf("aggregates = %v", row)
	}
	r = mustQuery(t, db, "SELECT COUNT(*) FROM a WHERE x > 7")
	if r.Data[0][0] != Int(3) {
		t.Fatalf("filtered count = %v", r.Data[0][0])
	}
	// Empty input.
	r = mustQuery(t, db, "SELECT COUNT(*), AVG(y) FROM a WHERE x > 100")
	if r.Data[0][0] != Int(0) || r.Data[0][1] != Real(0) {
		t.Fatalf("empty aggregates = %v", r.Data[0])
	}
	if _, err := db.Query("SELECT x, COUNT(*) FROM a"); err == nil {
		t.Fatal("mixed aggregate/column accepted")
	}
}

func TestDelete(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE d (x INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO d VALUES (?)", Int(int64(i)))
	}
	if n := mustExec(t, db, "DELETE FROM d WHERE x < 4"); n != 4 {
		t.Fatalf("deleted %d", n)
	}
	r := mustQuery(t, db, "SELECT COUNT(*) FROM d")
	if r.Data[0][0] != Int(6) {
		t.Fatalf("count after delete = %v", r.Data[0][0])
	}
	if n := mustExec(t, db, "DELETE FROM d"); n != 6 {
		t.Fatalf("delete all = %d", n)
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE d (x INT, y REAL)")
	mustExec(t, db, "CREATE INDEX dx ON d (x)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO d VALUES (?, ?)", Int(int64(i)), Real(float64(i)))
	}
	mustExec(t, db, "DELETE FROM d WHERE x >= 25")
	// Query through the index must see exactly the remaining rows.
	r, err := db.QueryMode(PlanForceIndex, "SELECT COUNT(*) FROM d WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if r.Data[0][0] != Int(25) {
		t.Fatalf("index count after delete = %v", r.Data[0][0])
	}
}

func TestIndexPlanAndEquivalence(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE f (dt INT, dv REAL, ts INT)")
	mustExec(t, db, "CREATE INDEX f_dtdv ON f (dt, dv)")
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		mustExec(t, db, "INSERT INTO f VALUES (?, ?, ?)",
			Int(rng.Int63n(500)), Real(rng.NormFloat64()*5), Int(int64(i)))
	}
	queries := []struct {
		sql  string
		args []Value
	}{
		{"SELECT ts FROM f WHERE dt <= 100 AND dv <= -2.0", nil},
		{"SELECT ts FROM f WHERE dt = 250", nil},
		{"SELECT ts FROM f WHERE dt = 250 AND dv > 0.0", nil},
		{"SELECT ts FROM f WHERE dt >= 480", nil},
		{"SELECT ts FROM f WHERE dt > 100 AND dt < 110 AND dv >= -1.0 AND dv <= 1.0", nil},
		{"SELECT ts FROM f WHERE dt <= ? AND dv <= ?", []Value{Int(50), Real(-3)}},
		{"SELECT ts FROM f WHERE 100 >= dt", nil}, // flipped operand order
	}
	for _, q := range queries {
		scan, err := db.QueryMode(PlanForceScan, q.sql, q.args...)
		if err != nil {
			t.Fatalf("%s (scan): %v", q.sql, err)
		}
		idx, err := db.QueryMode(PlanForceIndex, q.sql, q.args...)
		if err != nil {
			t.Fatalf("%s (index): %v", q.sql, err)
		}
		auto, err := db.Query(q.sql, q.args...)
		if err != nil {
			t.Fatalf("%s (auto): %v", q.sql, err)
		}
		if !sameRowMultiset(scan, idx) || !sameRowMultiset(scan, auto) {
			t.Fatalf("%s: plan results differ: scan=%d idx=%d auto=%d",
				q.sql, scan.Len(), idx.Len(), auto.Len())
		}
	}
}

func sameRowMultiset(a, b *Rows) bool {
	if a.Len() != b.Len() {
		return false
	}
	count := map[string]int{}
	for _, r := range a.Data {
		count[fmt.Sprint(r)]++
	}
	for _, r := range b.Data {
		count[fmt.Sprint(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestExplain(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE x (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX xa ON x (a)")
	r := mustQuery(t, db, "EXPLAIN SELECT * FROM x WHERE a <= 5")
	plan := r.Data[0][0].S
	if !strings.Contains(plan, "INDEX SCAN xa") {
		t.Fatalf("plan = %q", plan)
	}
	r = mustQuery(t, db, "EXPLAIN SELECT * FROM x WHERE b <= 5.0")
	plan = r.Data[0][0].S
	if !strings.Contains(plan, "SEQ SCAN") {
		t.Fatalf("unindexed plan = %q", plan)
	}
	r = mustQuery(t, db, "EXPLAIN DELETE FROM x WHERE a = 3")
	if !strings.Contains(r.Data[0][0].S, "INDEX SCAN") {
		t.Fatalf("delete plan = %q", r.Data[0][0].S)
	}
}

func TestImpossiblePredicate(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE p (a INT)")
	mustExec(t, db, "CREATE INDEX pa ON p (a)")
	mustExec(t, db, "INSERT INTO p VALUES (1)")
	r := mustQuery(t, db, "SELECT * FROM p WHERE a = 1.5")
	if r.Len() != 0 {
		t.Fatalf("impossible predicate returned %d rows", r.Len())
	}
	plan := mustQuery(t, db, "EXPLAIN SELECT * FROM p WHERE a = 1.5")
	if !strings.Contains(plan.Data[0][0].S, "EMPTY") {
		t.Fatalf("plan = %q", plan.Data[0][0].S)
	}
}

func TestFractionalBoundsOnIntColumn(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE q (a INT)")
	mustExec(t, db, "CREATE INDEX qa ON q (a)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO q VALUES (?)", Int(int64(i)))
	}
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"SELECT a FROM q WHERE a <= 4.5", 5},
		{"SELECT a FROM q WHERE a < 4.5", 5},
		{"SELECT a FROM q WHERE a >= 4.5", 5},
		{"SELECT a FROM q WHERE a > 4.5", 5},
		{"SELECT a FROM q WHERE a > 4.0", 5},
		{"SELECT a FROM q WHERE a >= 4.0", 6},
	} {
		for _, mode := range []PlanMode{PlanForceScan, PlanForceIndex} {
			r, err := db.QueryMode(mode, tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if r.Len() != tc.want {
				t.Fatalf("%s (mode %d): %d rows, want %d", tc.sql, mode, r.Len(), tc.want)
			}
		}
	}
}

func TestPreparedStatements(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE ps (a INT, b REAL)")
	ins, err := db.Prepare("INSERT INTO ps VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := ins.Exec(Int(int64(i)), Real(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := db.Prepare("SELECT COUNT(*) FROM ps WHERE a < ?")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sel.Query(Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Data[0][0] != Int(5) {
		t.Fatalf("prepared count = %v", r.Data[0][0])
	}
	if _, err := sel.Query(); err == nil {
		t.Fatal("missing args accepted")
	}
	if _, err := sel.Query(Int(1), Int(2)); err == nil {
		t.Fatal("extra args accepted")
	}
}

func TestErrors(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t1 (a INT)")
	cases := []string{
		"CREATE TABLE t1 (a INT)",         // duplicate table
		"CREATE TABLE t2 (a INT, a REAL)", // duplicate column
		"CREATE INDEX i1 ON missing (a)",  // unknown table
		"CREATE INDEX i1 ON t1 (nope)",    // unknown column
		"INSERT INTO missing VALUES (1)",  // unknown table
		"INSERT INTO t1 VALUES (1, 2)",    // arity mismatch
		"INSERT INTO t1 VALUES ('hello')", // type mismatch
		"DELETE FROM missing",             // unknown table
	}
	for _, sql := range cases {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%q accepted", sql)
		}
	}
	queryCases := []string{
		"SELECT * FROM missing",
		"SELECT nope FROM t1",
		"SELECT * FROM t1 WHERE nope = 1",
		"SELECT * FROM t1 ORDER BY nope",
		"SELECT * FROM t1 WHERE COUNT(*) > 1",
	}
	for _, sql := range queryCases {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("%q accepted", sql)
		}
	}
	if _, err := db.Exec("SELECT * FROM t1"); err == nil {
		t.Error("Exec of SELECT accepted")
	}
	if _, err := db.Query("DELETE FROM t1"); err == nil {
		t.Error("Query of DELETE accepted")
	}
	mustExec(t, db, "CREATE INDEX i1 ON t1 (a)")
	if _, err := db.Exec("CREATE INDEX i1 ON t1 (a)"); err == nil {
		t.Error("duplicate index accepted")
	}
}

func TestParserErrors(t *testing.T) {
	db := memDB(t)
	for _, sql := range []string{
		"",
		"FROBNICATE",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"CREATE TABLE t (a BOGUS)",
		"CREATE",
		"INSERT t VALUES (1)",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t extra",
		"SELECT 'unterminated FROM t",
		"SELECT 1e FROM t",
		"SELECT # FROM t",
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("parser accepted %q", sql)
		}
	}
}

func TestStringLiteralsAndEscapes(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE s (name TEXT)")
	mustExec(t, db, "INSERT INTO s VALUES ('it''s')")
	r := mustQuery(t, db, "SELECT name FROM s WHERE name = 'it''s'")
	if r.Len() != 1 || r.Data[0][0] != Text("it's") {
		t.Fatalf("escaped string = %v", r.Data)
	}
}

func TestTextIndex(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE st (name TEXT, v INT)")
	mustExec(t, db, "CREATE INDEX st_name ON st (name)")
	for i, name := range []string{"delta", "alpha", "charlie", "bravo"} {
		mustExec(t, db, "INSERT INTO st VALUES (?, ?)", Text(name), Int(int64(i)))
	}
	r, err := db.QueryMode(PlanForceIndex, "SELECT v FROM st WHERE name = 'charlie'")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Data[0][0] != Int(2) {
		t.Fatalf("text index lookup = %v", r.Data)
	}
	r, err = db.QueryMode(PlanForceIndex, "SELECT v FROM st WHERE name >= 'b' AND name <= 'c'")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 { // only bravo
		t.Fatalf("text range = %v", r.Data)
	}
}

func TestIndexBackfill(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE bf (a INT)")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO bf VALUES (?)", Int(int64(i)))
	}
	mustExec(t, db, "CREATE INDEX bfa ON bf (a)") // built over existing rows
	r, err := db.QueryMode(PlanForceIndex, "SELECT COUNT(*) FROM bf WHERE a >= 50")
	if err != nil {
		t.Fatal(err)
	}
	if r.Data[0][0] != Int(50) {
		t.Fatalf("backfilled index count = %v", r.Data[0][0])
	}
}

func TestComments(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE c (a INT) -- trailing comment")
	mustExec(t, db, "-- leading comment\nINSERT INTO c VALUES (1)")
	r := mustQuery(t, db, "SELECT COUNT(*) FROM c")
	if r.Data[0][0] != Int(1) {
		t.Fatal("comments broke execution")
	}
}

func TestClosedDB(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE z (a INT)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO z VALUES (1)"); err == nil {
		t.Fatal("exec on closed DB accepted")
	}
	if _, err := db.Query("SELECT * FROM z"); err == nil {
		t.Fatal("query on closed DB accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
}

func TestStatsAPIs(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE m (a INT)")
	mustExec(t, db, "CREATE INDEX ma ON m (a)")
	for i := 0; i < 1000; i++ {
		mustExec(t, db, "INSERT INTO m VALUES (?)", Int(int64(i)))
	}
	tb, err := db.TableSizeBytes("m")
	if err != nil || tb <= 0 {
		t.Fatalf("table size = %d, %v", tb, err)
	}
	ib, err := db.IndexSizeBytes("m")
	if err != nil || ib <= 0 {
		t.Fatalf("index size = %d, %v", ib, err)
	}
	n, err := db.RowCount("m")
	if err != nil || n != 1000 {
		t.Fatalf("row count = %d, %v", n, err)
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("tables = %v", got)
	}
	coldPools(t, db)
	mustQuery(t, db, "SELECT COUNT(*) FROM m")
	st := db.CacheStats()
	if st.Misses == 0 {
		t.Fatalf("no cache misses from cold pools: %+v", st)
	}
	if _, err := db.TableSizeBytes("missing"); err == nil {
		t.Fatal("missing table size accepted")
	}
	if _, err := db.IndexSizeBytes("missing"); err == nil {
		t.Fatal("missing index size accepted")
	}
	if _, err := db.RowCount("missing"); err == nil {
		t.Fatal("missing row count accepted")
	}
}

func TestUnion(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE u1 (a INT, b REAL)")
	mustExec(t, db, "CREATE TABLE u2 (a INT, b REAL)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO u1 VALUES (?, ?)", Int(int64(i)), Real(float64(i)))
		mustExec(t, db, "INSERT INTO u2 VALUES (?, ?)", Int(int64(i+5)), Real(float64(i+5)))
	}
	// Overlap: u1 has 0..9, u2 has 5..14; rows 5..9 appear in both and
	// must be deduplicated.
	r := mustQuery(t, db, "SELECT a, b FROM u1 UNION SELECT a, b FROM u2")
	if r.Len() != 15 {
		t.Fatalf("union rows = %d, want 15", r.Len())
	}
	// With WHERE and global placeholder numbering.
	r = mustQuery(t, db,
		"SELECT a, b FROM u1 WHERE a < ? UNION SELECT a, b FROM u2 WHERE a > ?",
		Int(2), Int(12))
	if r.Len() != 4 { // 0,1 from u1; 13,14 from u2
		t.Fatalf("filtered union rows = %d: %v", r.Len(), r.Data)
	}
	// Three branches.
	r = mustQuery(t, db,
		"SELECT a FROM u1 WHERE a = 0 UNION SELECT a FROM u1 WHERE a = 1 UNION SELECT a FROM u2 WHERE a = 14")
	if r.Len() != 3 {
		t.Fatalf("three-branch union rows = %d", r.Len())
	}
	// Column arity mismatch.
	if _, err := db.Query("SELECT a FROM u1 UNION SELECT a, b FROM u2"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// ORDER BY / LIMIT rejected inside unions.
	if _, err := db.Query("SELECT a FROM u1 ORDER BY a UNION SELECT a FROM u2"); err == nil {
		t.Fatal("ORDER BY in union accepted")
	}
	if _, err := db.Query("SELECT a FROM u1 UNION SELECT a FROM u2 LIMIT 3"); err == nil {
		t.Fatal("LIMIT in union accepted")
	}
	// EXPLAIN shows one plan line per branch.
	er := mustQuery(t, db, "EXPLAIN SELECT a FROM u1 WHERE a = 1 UNION SELECT a FROM u2")
	if er.Len() != 2 {
		t.Fatalf("explain union lines = %d", er.Len())
	}
	// Union via Exec is rejected.
	if _, err := db.Exec("SELECT a FROM u1 UNION SELECT a FROM u2"); err == nil {
		t.Fatal("Exec of UNION accepted")
	}
}

func TestUnionPlanModes(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE uu (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX uua ON uu (a)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, "INSERT INTO uu VALUES (?, ?)", Int(int64(i%50)), Real(float64(i)))
	}
	q := "SELECT b FROM uu WHERE a <= ? UNION SELECT b FROM uu WHERE a >= ?"
	scan, err := db.QueryMode(PlanForceScan, q, Int(5), Int(45))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.QueryMode(PlanForceIndex, q, Int(5), Int(45))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRowMultiset(scan, idx) {
		t.Fatalf("union plan results differ: %d vs %d", scan.Len(), idx.Len())
	}
}
