package sqlmini

import (
	"strings"
	"sync/atomic"
	"testing"

	"segdiff/internal/storage/pager"
)

// countFile counts the bytes written to one backing file into a total
// shared by every file of the database.
type countFile struct {
	pager.File
	written *atomic.Int64
}

func (c countFile) WriteAt(p []byte, off int64) (int, error) {
	c.written.Add(int64(len(p)))
	return c.File.WriteAt(p, off)
}

// TestCommitCostIndependentOfStoreSize pins the property the commit path
// was rebuilt for: committing a batch writes the WAL and nothing else, so
// what it costs follows the batch, not what the table already holds, and
// catalog.json is rewritten by DDL only: commits, checkpoints and Close
// leave it alone.
func TestCommitCostIndependentOfStoreSize(t *testing.T) {
	var written atomic.Int64
	db, err := Open(t.TempDir(), Options{FileFactory: func(string) (pager.File, error) {
		return countFile{pager.NewMemFile(), &written}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 192 bytes a row with its slot: 21 to a page.
	pad := strings.Repeat("x", 170)
	batch := func(n int) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{Int(int64(i)), Real(float64(i) / 3), Text(pad)}
		}
		return rows
	}
	commitBytes := map[string]int64{}
	stmts := map[string]*Stmt{}
	for table, pages := range map[string]int{"small": 20, "large": 2000} {
		mustExec(t, db, "CREATE TABLE "+table+" (a INT, b REAL, s TEXT)")
		st, err := db.Prepare("INSERT INTO " + table + " VALUES (?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		stmts[table] = st
		if _, err := st.ExecBatch(batch(22 * pages)); err != nil {
			t.Fatal(err)
		}
		if size, _ := db.TableSizeBytes(table); size < int64(pages)*pager.PageSize {
			t.Fatalf("%s holds %d bytes, want at least %d pages", table, size, pages)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	saves := func() uint64 { return db.Metrics().Counter("catalog.saves") }
	base := saves()
	if base != 2 || db.Metrics().Counter("catalog.bytes_written") == 0 {
		t.Fatalf("two CREATE TABLEs counted %d catalog saves on the registry, want 2", base)
	}
	for _, table := range []string{"small", "large"} {
		before := written.Load()
		if _, err := stmts[table].ExecBatch(batch(50)); err != nil {
			t.Fatal(err)
		}
		commitBytes[table] = written.Load() - before
	}
	diff := commitBytes["large"] - commitBytes["small"]
	if diff < 0 {
		diff = -diff
	}
	// The two tail pages are filled to different levels, so the batches may
	// spill onto one page more or less; beyond that the commits are equal.
	if onePage := int64(pager.PageSize + 64); diff > onePage {
		t.Fatalf("commit wrote %d bytes into 20 pages but %d into 2000", commitBytes["small"], commitBytes["large"])
	}
	for i := 0; i < 98; i++ {
		if _, err := stmts["small"].ExecBatch(batch(5)); err != nil {
			t.Fatal(err)
		}
	}
	if n := saves(); n != base {
		t.Fatalf("100 commits without DDL rewrote catalog.json %d times", n-base)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmts["large"].ExecBatch(batch(5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := saves(); n != base {
		t.Fatalf("commits, a checkpoint and Close rewrote catalog.json %d times, want 0", n-base)
	}
}
