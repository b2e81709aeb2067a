package pager

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func newMemPager(t *testing.T, capacity int) *Pager {
	t.Helper()
	return newPager(t, NewMemFile(), capacity)
}

func newPager(t *testing.T, f File, capacity int) *Pager {
	t.Helper()
	p, err := New(f, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reopen closes p and returns a new Pager over f (p's file or a wrapper
// of it): an empty pool with zeroed counters, so every Get reads its page
// from the file.
func reopen(t *testing.T, p *Pager, f File, capacity int) *Pager {
	t.Helper()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return newPager(t, f, capacity)
}

func TestAllocateAndGet(t *testing.T) {
	p := newMemPager(t, 8)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID() != 0 {
		t.Fatalf("first page id = %d", pg.ID())
	}
	copy(pg.Data(), "hello")
	pg.MarkDirty()
	pg.Release()

	got, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data()[:5], []byte("hello")) {
		t.Fatalf("data = %q", got.Data()[:5])
	}
	got.Release()
	if p.NumPages() != 1 {
		t.Fatalf("NumPages = %d", p.NumPages())
	}
}

func TestGetOutOfRange(t *testing.T) {
	p := newMemPager(t, 8)
	if _, err := p.Get(0); err == nil {
		t.Fatal("get on empty pager accepted")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	f := NewMemFile()
	p, err := New(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fill 4 pages through a pool of 2 frames.
	for i := 0; i < 4; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(i + 1)
		pg.MarkDirty()
		pg.Release()
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions with capacity 2 and 4 pages")
	}
	// All pages must read back correctly.
	for i := 0; i < 4; i++ {
		pg, err := p.Get(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data()[0] != byte(i+1) {
			t.Fatalf("page %d data = %d", i, pg.Data()[0])
		}
		pg.Release()
	}
}

func TestLRUOrder(t *testing.T) {
	p := newMemPager(t, 2)
	for i := 0; i < 2; i++ {
		pg, _ := p.Allocate()
		pg.Release()
	}
	// Touch page 0 so page 1 is LRU.
	pg0, _ := p.Get(0)
	pg0.Release()
	// Allocating a third page must evict page 1, not page 0.
	pg2, _ := p.Allocate()
	pg2.Release()
	if !p.cachedForTest(0) {
		t.Fatal("recently used page 0 was evicted")
	}
	if p.cachedForTest(1) {
		t.Fatal("LRU page 1 was not evicted")
	}
}

// TestClockSpansWholePool fills a DefaultCapacity pool, references every
// 8th page and allocates one more page: the victim must be an unreferenced
// frame from anywhere in the pool, so every referenced page stays cached.
// A clock confined to the new page's share of the pool would evict a hot
// page while cold ones remained elsewhere.
func TestClockSpansWholePool(t *testing.T) {
	p := newMemPager(t, DefaultCapacity)
	defer p.Close()
	for i := 0; i < DefaultCapacity; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	for id := PageID(0); id < DefaultCapacity; id += 8 {
		pg, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	for id := PageID(0); id < DefaultCapacity; id += 8 {
		if !p.cachedForTest(id) {
			t.Fatalf("hot page %d evicted while unreferenced frames remained", id)
		}
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p := newMemPager(t, 1)
	pg0, _ := p.Allocate()
	// Pool is full with a pinned page; allocation must overcommit.
	pg1, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if !p.cachedForTest(0) {
		t.Fatal("pinned page evicted")
	}
	pg0.Release()
	pg1.Release()
}

func TestReleasePanicsWhenUnpinned(t *testing.T) {
	p := newMemPager(t, 4)
	pg, _ := p.Allocate()
	pg2 := pg // copy of handle
	pg.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	pg2.Release()
}

func TestHitMissCounters(t *testing.T) {
	f := NewMemFile()
	p := newPager(t, f, 2)
	pg, _ := p.Allocate()
	pg.Release()
	g, _ := p.Get(0)
	g.Release()
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats after warm get: %+v", st)
	}
	p = reopen(t, p, f, 2)
	g, _ = p.Get(0)
	g.Release()
	st = p.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Reads != 1 {
		t.Fatalf("stats after cold get: %+v", st)
	}
}

func TestOSFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := p.Allocate()
	copy(pg.Data(), "durable")
	pg.MarkDirty()
	pg.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(f2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", p2.NumPages())
	}
	g, err := p2.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Data()[:7], []byte("durable")) {
		t.Fatal("data not persisted")
	}
	g.Release()
	if p2.SizeBytes() != PageSize {
		t.Fatalf("SizeBytes = %d", p2.SizeBytes())
	}
}

func TestNewRejectsPartialPages(t *testing.T) {
	f := NewMemFile()
	if _, err := f.WriteAt([]byte("odd"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := New(f, 4); err == nil {
		t.Fatal("partial-page file accepted")
	}
}

func TestCloseWithPinnedPageFails(t *testing.T) {
	p := newMemPager(t, 4)
	pg, _ := p.Allocate()
	if err := p.Close(); err == nil {
		t.Fatal("close with pinned page accepted")
	}
	pg.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(0); err == nil {
		t.Fatal("use after close accepted")
	}
	if err := p.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
}

func TestMemFileReadPastEnd(t *testing.T) {
	m := NewMemFile()
	if _, err := m.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := m.ReadAt(buf, 0)
	if n != 3 || err == nil {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	if _, err := m.ReadAt(buf, 100); err == nil {
		t.Fatal("read past end accepted")
	}
}

func TestDefaultCapacity(t *testing.T) {
	p, err := New(NewMemFile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.capacity != DefaultCapacity {
		t.Fatalf("capacity = %d", p.capacity)
	}
}

func TestOSFileOpenError(t *testing.T) {
	dir := t.TempDir()
	// A directory is not openable as a file with O_RDWR.
	if _, err := OpenOSFile(dir); err == nil {
		t.Fatal("opening a directory accepted")
	}
	_ = os.Remove(filepath.Join(dir, "nothing"))
}
