package pager

// Demand-read coverage: two misses on one page share a single file read,
// and the Stats invariants hold in every snapshot taken while reads and
// allocations run concurrently. Run with -race.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedFile wraps a File and parks the first ReadAt of one chosen page
// after it has read the bytes, until released, so tests can hold a read
// "in flight" deterministically with the content it saw fixed.
type gatedFile struct {
	File
	gate    int64         // byte offset whose first ReadAt parks
	armed   atomic.Bool   // one-shot
	entered chan struct{} // signalled when the gated read has its bytes
	release chan struct{} // closed by the test to let the read return
}

func newGatedFile(inner File, page PageID) *gatedFile {
	g := &gatedFile{
		File:    inner,
		gate:    int64(page) * PageSize,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	g.armed.Store(true)
	return g
}

func (g *gatedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := g.File.ReadAt(p, off)
	if off == g.gate && g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return n, err
}

// fillPages allocates n pages whose first byte is tag and flushes them.
func fillPages(t *testing.T, p *Pager, n int, tag byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = tag
		pg.MarkDirty()
		pg.Release()
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// getFirstByte reads page id and returns its first byte.
func getFirstByte(p *Pager, id PageID) (byte, error) {
	pg, err := p.Get(id)
	if err != nil {
		return 0, err
	}
	b := pg.Data()[0]
	pg.Release()
	return b, nil
}

// TestDemandReadDedupe holds one Get's file read in flight and issues a
// second Get for the same page: it must wait for that read and hit the
// frame it inserted (one file read total), not read the page a second
// time.
func TestDemandReadDedupe(t *testing.T) {
	inner := NewMemFile()
	p := newPager(t, inner, 16)
	fillPages(t, p, 8, 0xCD)
	g := newGatedFile(inner, 2)
	p = reopen(t, p, g, 16)
	defer p.Close()

	got := make(chan error, 2)
	get := func() {
		b, err := getFirstByte(p, 2)
		if err == nil && b != 0xCD {
			err = fmt.Errorf("page 2 data = %x", b)
		}
		got <- err
	}
	go get()
	<-g.entered // the first read is now in flight
	go get()
	// The second Get should block behind the in-flight read; give it a
	// moment to arrive before releasing the gate. (If it arrives later it
	// still just hits the cached frame — the assertion below is on read
	// counts.)
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Reads != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("page read twice (or counted wrong): %+v", st)
	}
}

// TestShardBoundaryStress hammers adjacent PageIDs with concurrent Get
// and Allocate through a pool smaller than the file, so reads miss, evict
// and write back the allocator's dirty pages while other readers hit. It
// checks every page's content, Reads == Misses in mid-flight snapshots,
// and that the allocated pages survive their eviction.
func TestShardBoundaryStress(t *testing.T) {
	f := NewMemFile()
	p := newPager(t, f, 64)
	const seedPages = 96
	fillPages(t, p, seedPages, 0x5A)
	p = reopen(t, p, f, 48)
	defer p.Close()

	var (
		workers sync.WaitGroup
		gets    atomic.Uint64
	)
	// Readers walk a window of consecutive ids from staggered starts.
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(seed int) {
			defer workers.Done()
			for i := 0; i < 3000; i++ {
				id := PageID((seed + i) % seedPages)
				b, err := getFirstByte(p, id)
				if err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				if b != 0x5A {
					t.Errorf("page %d data = %x", id, b)
					return
				}
				gets.Add(1)
			}
		}(g * 7)
	}
	// One allocator grows the file with dirty pages the readers evict.
	const allocs = 200
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < allocs; i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Errorf("allocate: %v", err)
				return
			}
			pg.Data()[0] = 0xA5
			pg.MarkDirty()
			pg.Release()
		}
	}()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := p.Stats(); st.Reads != st.Misses {
				t.Errorf("mid-flight snapshot skewed: %+v", st)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	workers.Wait()
	close(stop)
	sampler.Wait()

	st := p.Stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("Hits+Misses = %d+%d, want %d successful gets", st.Hits, st.Misses, gets.Load())
	}
	if st.Reads != st.Misses {
		t.Fatalf("Reads != Misses: %+v", st)
	}
	if st.Evictions == 0 || st.Writes == 0 {
		t.Fatalf("pool of 48 over %d pages should evict and write back, stats %+v", seedPages+allocs, st)
	}
	for id := PageID(seedPages); id < seedPages+allocs; id++ {
		if b, err := getFirstByte(p, id); err != nil || b != 0xA5 {
			t.Fatalf("allocated page %d = %x, %v", id, b, err)
		}
	}
}

// TestStatsConsistentSnapshot checks the Stats invariants under
// concurrency: Reads must equal Misses in every snapshot taken while
// readers miss and evict and an allocator grows the file, and at the end
// Hits+Misses must equal the number of completed Gets.
func TestStatsConsistentSnapshot(t *testing.T) {
	f := NewMemFile()
	p := newPager(t, f, 32)
	const nPages = 128
	fillPages(t, p, nPages, 0x11)
	p = reopen(t, p, f, 32)
	defer p.Close()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				if _, err := getFirstByte(p, PageID((seed*31+i)%nPages)); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 200; i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Errorf("allocate: %v", err)
				return
			}
			pg.Release()
		}
	}()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := p.Stats(); st.Reads != st.Misses {
				t.Errorf("snapshot skewed: %+v", st)
				return
			}
		}
	}()
	readers.Wait()
	close(stop)
	sampler.Wait()

	st := p.Stats()
	if st.Hits+st.Misses != 4*2000 {
		t.Fatalf("Hits+Misses = %d, want %d", st.Hits+st.Misses, 4*2000)
	}
	if st.Reads != st.Misses {
		t.Fatalf("Reads != Misses: %+v", st)
	}
}
