package sqlmini

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE obs (t INT, v REAL)")
	mustExec(t, db, "CREATE INDEX obs_t ON obs (t)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO obs VALUES (?, ?)", Int(int64(i)), Real(float64(i)*1.5))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, "SELECT COUNT(*) FROM obs")
	if r.Data[0][0] != Int(500) {
		t.Fatalf("count after reopen = %v", r.Data[0][0])
	}
	idx, err := db2.QueryMode(PlanForceIndex, "SELECT v FROM obs WHERE t = 123")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 || idx.Data[0][0] != Real(184.5) {
		t.Fatalf("indexed lookup after reopen = %v", idx.Data)
	}
}

// Crash simulation: batches are committed to the WAL but the process dies
// before any checkpoint. A reopen must recover every committed row and
// keep heap and indexes consistent.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE r (a INT, b REAL)")
	mustExec(t, db, "CREATE INDEX ra ON r (a)")
	db.BeginBatch()
	for i := 0; i < 300; i++ {
		mustExec(t, db, "INSERT INTO r VALUES (?, ?)", Int(int64(i)), Real(float64(i)))
	}
	if err := db.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	// Second, uncommitted batch, then "crash" (no Close, no checkpoint).
	db.BeginBatch()
	for i := 300; i < 400; i++ {
		mustExec(t, db, "INSERT INTO r VALUES (?, ?)", Int(int64(i)), Real(float64(i)))
	}
	// Simulate the crash by abandoning the DB object entirely. The pagers
	// hold dirty pages that never reach disk; the WAL holds batch 1 only.
	db = nil

	db2, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, "SELECT COUNT(*) FROM r")
	if r.Data[0][0] != Int(300) {
		t.Fatalf("recovered count = %v, want 300 (committed batch only)", r.Data[0][0])
	}
	// Index and heap must agree after recovery.
	ir, err := db2.QueryMode(PlanForceIndex, "SELECT COUNT(*) FROM r WHERE a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if ir.Data[0][0] != Int(300) {
		t.Fatalf("recovered index count = %v", ir.Data[0][0])
	}
	// The database must accept new writes after recovery.
	mustExec(t, db2, "INSERT INTO r VALUES (1000, 1.0)")
	r = mustQuery(t, db2, "SELECT COUNT(*) FROM r")
	if r.Data[0][0] != Int(301) {
		t.Fatalf("post-recovery insert: count = %v", r.Data[0][0])
	}
}

// With small pool sizes the no-steal policy must still never leak
// uncommitted pages: a crash mid-batch recovers to the last commit even
// when the batch is much larger than the buffer pool.
func TestCrashMidLargeBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE big (a INT, pad TEXT)")
	pad := make([]byte, 256)
	for i := range pad {
		pad[i] = 'x'
	}
	db.BeginBatch()
	for i := 0; i < 200; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?)", Int(int64(i)), Text(string(pad)))
	}
	if err := db.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	db.BeginBatch()
	for i := 200; i < 500; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?)", Int(int64(i)), Text(string(pad)))
	}
	db = nil // crash with a 300-row open batch and a 4-page pool

	db2, err := Open(dir, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, "SELECT COUNT(*) FROM big")
	if r.Data[0][0] != Int(200) {
		t.Fatalf("recovered count = %v, want 200", r.Data[0][0])
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE c (a INT)")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO c VALUES (?)", Int(int64(i)))
	}
	walPath := filepath.Join(dir, "wal.log")
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() == 0 {
		t.Fatal("WAL empty before checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 0 {
		t.Fatalf("WAL size after checkpoint = %d", after.Size())
	}
	r := mustQuery(t, db, "SELECT COUNT(*) FROM c")
	if r.Data[0][0] != Int(100) {
		t.Fatalf("count after checkpoint = %v", r.Data[0][0])
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.checkpointBytes = 16 << 10
	mustExec(t, db, "CREATE TABLE ac (a INT)")
	// Each commit logs at least one 4 KiB page, so a handful of commits
	// crosses the 16 KiB threshold and auto-checkpoints.
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO ac VALUES (?)", Int(int64(i)))
	}
	info, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 64<<10 {
		t.Fatalf("WAL grew unboundedly: %d bytes", info.Size())
	}
}

func TestDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE dl (a INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO dl VALUES (?)", Int(int64(i)))
	}
	mustExec(t, db, "DELETE FROM dl WHERE a < 20")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, "SELECT COUNT(*) FROM dl")
	if r.Data[0][0] != Int(30) {
		t.Fatalf("count after delete+reopen = %v", r.Data[0][0])
	}
}

func TestCatalogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t1 (a INT, b REAL, c TEXT)")
	mustExec(t, db, "CREATE TABLE t2 (x INT)")
	mustExec(t, db, "CREATE INDEX i1 ON t1 (a, b)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tabs := db2.Tables()
	if len(tabs) != 2 || tabs[0] != "t1" || tabs[1] != "t2" {
		t.Fatalf("tables after reopen = %v", tabs)
	}
	// The index must be usable.
	mustExec(t, db2, "INSERT INTO t1 VALUES (1, 2.0, 'x')")
	r, err := db2.QueryMode(PlanForceIndex, "SELECT c FROM t1 WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Data[0][0] != Text("x") {
		t.Fatalf("reopened index lookup = %v", r.Data)
	}
}
