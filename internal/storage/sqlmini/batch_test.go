package sqlmini

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMultiRowInsertSQL(t *testing.T) {
	db := OpenMemory(Options{})
	mustExec(t, db, "CREATE TABLE m (a INT, b TEXT)")
	n, err := db.Exec("INSERT INTO m VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("multi-row insert returned %d, want 3", n)
	}
	n, err = db.Exec("INSERT INTO m VALUES (?, ?), (?, ?)", Int(4), Text("p"), Int(5), Text("q"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("parameterized multi-row insert returned %d, want 2", n)
	}
	r := mustQuery(t, db, "SELECT a, b FROM m ORDER BY a")
	want := [][]Value{
		{Int(1), Text("x")}, {Int(2), Text("y")}, {Int(3), Text("z")},
		{Int(4), Text("p")}, {Int(5), Text("q")},
	}
	if !reflect.DeepEqual(r.Data, want) {
		t.Fatalf("rows = %v, want %v", r.Data, want)
	}
	if _, err := db.Exec("INSERT INTO m VALUES (1, 'x'), (2)"); err == nil {
		t.Fatal("ragged VALUES accepted")
	}
}

// ExecBatch must leave the store in a state indistinguishable from per-row
// Exec: identical query results through every plan, and byte-identical
// table files (heap order is preserved by the batched path).
func TestExecBatchMatchesPerRowExec(t *testing.T) {
	setup := func(dir string) *DB {
		db, err := Open(dir, Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE f (t INT, v REAL, s TEXT)")
		mustExec(t, db, "CREATE INDEX ft ON f (t)")
		mustExec(t, db, "CREATE INDEX fv ON f (v)")
		mustExec(t, db, "CREATE INDEX fts ON f (t, s)")
		return db
	}
	argRow := func(i int) []Value {
		return []Value{Int(int64(i % 97)), Real(float64(i) * 0.5), Text(fmt.Sprintf("s%03d", i%31))}
	}
	const total = 1200

	dirA, dirB := t.TempDir(), t.TempDir()
	dbA := setup(dirA)
	stA, err := dbA.Prepare("INSERT INTO f VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := stA.Exec(argRow(i)...); err != nil {
			t.Fatal(err)
		}
	}

	dbB := setup(dirB)
	stB, err := dbB.Prepare("INSERT INTO f VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < total; {
		hi := lo + 100 + lo%57 // uneven chunks
		if hi > total {
			hi = total
		}
		var argRows [][]Value
		for i := lo; i < hi; i++ {
			argRows = append(argRows, argRow(i))
		}
		n, err := stB.ExecBatch(argRows)
		if err != nil {
			t.Fatal(err)
		}
		if n != hi-lo {
			t.Fatalf("ExecBatch returned %d, want %d", n, hi-lo)
		}
		lo = hi
	}

	queries := []string{
		"SELECT COUNT(*) FROM f",
		"SELECT t, v, s FROM f ORDER BY t, v, s",
		"SELECT v FROM f WHERE t = 42 ORDER BY v",
		"SELECT t FROM f WHERE v >= 100 AND v <= 200 ORDER BY t",
	}
	for _, q := range queries {
		for _, mode := range []PlanMode{PlanForceScan, PlanForceIndex} {
			ra, errA := dbA.QueryMode(mode, q)
			rb, errB := dbB.QueryMode(mode, q)
			if errA != nil || errB != nil {
				t.Fatalf("%s (mode %v): %v / %v", q, mode, errA, errB)
			}
			if !reflect.DeepEqual(ra.Data, rb.Data) {
				t.Fatalf("%s (mode %v): results diverge", q, mode)
			}
		}
	}

	if err := dbA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dbB.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dirA, "t_f.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "t_f.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("table files differ: %d vs %d bytes", len(a), len(b))
	}
}

func TestExecBatchErrors(t *testing.T) {
	db := OpenMemory(Options{})
	mustExec(t, db, "CREATE TABLE e (a INT)")
	sel, err := db.Prepare("SELECT a FROM e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.ExecBatch([][]Value{{Int(1)}}); err == nil {
		t.Fatal("ExecBatch on SELECT accepted")
	}
	ins, err := db.Prepare("INSERT INTO e VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ins.ExecBatch(nil); err != nil || n != 0 {
		t.Fatalf("empty batch: %d, %v", n, err)
	}
	if _, err := ins.ExecBatch([][]Value{{Int(1), Int(2)}}); err == nil {
		t.Fatal("wrong arg count accepted")
	}
	// The failed batch must not have inserted anything.
	if r := mustQuery(t, db, "SELECT COUNT(*) FROM e"); r.Data[0][0] != Int(0) {
		t.Fatalf("count = %v after failed batches", r.Data[0][0])
	}
}

// AbortBatch must roll a durable store back to its last committed state and
// leave it fully usable: consistent heap and indexes, new writes accepted,
// and a clean reopen.
func TestAbortBatchRestoresCommittedState(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE r (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX ra ON r (a)")
	st, err := db.Prepare("INSERT INTO r VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	var committed [][]Value
	for i := 0; i < 250; i++ {
		committed = append(committed, []Value{Int(int64(i)), Real(float64(i))})
	}
	if _, err := st.ExecBatch(committed); err != nil {
		t.Fatal(err)
	}

	// Open a batch, write rows that will be regretted, abort.
	db.BeginBatch()
	var doomed [][]Value
	for i := 250; i < 400; i++ {
		doomed = append(doomed, []Value{Int(int64(i)), Real(float64(i))})
	}
	if _, err := st.ExecBatch(doomed); err != nil {
		t.Fatal(err)
	}
	if err := db.AbortBatch(); err != nil {
		t.Fatal(err)
	}

	check := func(db *DB, wantCount int64, label string) {
		r := mustQuery(t, db, "SELECT COUNT(*) FROM r")
		if r.Data[0][0] != Int(wantCount) {
			t.Fatalf("%s: count = %v, want %d", label, r.Data[0][0], wantCount)
		}
		ir, err := db.QueryMode(PlanForceIndex, "SELECT COUNT(*) FROM r WHERE a >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if ir.Data[0][0] != Int(wantCount) {
			t.Fatalf("%s: index count = %v, want %d", label, ir.Data[0][0], wantCount)
		}
	}
	check(db, 250, "after abort")

	// Aborted rows must not reappear through the index.
	ir, err := db.QueryMode(PlanForceIndex, "SELECT COUNT(*) FROM r WHERE a >= 250")
	if err != nil {
		t.Fatal(err)
	}
	if ir.Data[0][0] != Int(0) {
		t.Fatalf("aborted rows visible via index: %v", ir.Data[0][0])
	}

	// The store must accept and persist new writes after the abort.
	if _, err := st.ExecBatch([][]Value{{Int(1000), Real(1.0)}}); err != nil {
		t.Fatal(err)
	}
	check(db, 251, "after post-abort insert")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, 251, "after reopen")
}

func TestAbortBatchInMemoryRejected(t *testing.T) {
	db := OpenMemory(Options{})
	mustExec(t, db, "CREATE TABLE x (a INT)")
	db.BeginBatch()
	if err := db.AbortBatch(); err == nil {
		t.Fatal("in-memory AbortBatch accepted")
	}
}

// Crash simulation around ExecBatch group commits: a committed batch
// survives reopen; a batch staged inside an open BeginBatch window that
// never commits leaves no trace.
func TestCrashAfterExecBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE c (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX ca ON c (a)")
	st, err := db.Prepare("INSERT INTO c VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := 0; i < 300; i++ {
		rows = append(rows, []Value{Int(int64(i)), Real(float64(i))})
	}
	if _, err := st.ExecBatch(rows); err != nil { // auto-commits (group commit)
		t.Fatal(err)
	}
	// Second batch under BeginBatch, never committed, then "crash".
	db.BeginBatch()
	var more [][]Value
	for i := 300; i < 450; i++ {
		more = append(more, []Value{Int(int64(i)), Real(float64(i))})
	}
	if _, err := st.ExecBatch(more); err != nil {
		t.Fatal(err)
	}
	db = nil // abandon without Close: dirty pages and staged images are lost

	db2, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, "SELECT COUNT(*) FROM c")
	if r.Data[0][0] != Int(300) {
		t.Fatalf("recovered count = %v, want 300 (committed ExecBatch only)", r.Data[0][0])
	}
	ir, err := db2.QueryMode(PlanForceIndex, "SELECT COUNT(*) FROM c WHERE a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if ir.Data[0][0] != Int(300) {
		t.Fatalf("recovered index count = %v", ir.Data[0][0])
	}
}
