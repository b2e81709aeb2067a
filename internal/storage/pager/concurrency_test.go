package pager

// Concurrent-reader coverage for the buffer pool. Run with -race.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// buildFile returns a pager over nPages pages where page i's first eight
// bytes hold i, flushed so reads can verify content after eviction.
func buildFile(t *testing.T, capacity, nPages int) *Pager {
	t.Helper()
	p, err := New(NewMemFile(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPages; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Data(), uint64(i))
		pg.MarkDirty()
		pg.Release()
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentGet has many goroutines pulling random pages through a
// pool far smaller than the file, forcing constant misses and evictions
// alongside hits. Every read must observe the page's own content.
func TestConcurrentGet(t *testing.T) {
	const nPages = 256
	p := buildFile(t, 32, nPages)
	defer func() {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := PageID(rng.Intn(nPages))
				pg, err := p.Get(id)
				if err != nil {
					errCh <- err
					return
				}
				if got := binary.LittleEndian.Uint64(pg.Data()); got != uint64(id) {
					pg.Release()
					errCh <- fmt.Errorf("page %d holds content of page %d", id, got)
					return
				}
				pg.Release()
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*iters)
	}
	if st.Reads != st.Misses {
		t.Fatalf("every file read is a miss: reads %d != misses %d", st.Reads, st.Misses)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("pool of 32 over 256 pages should thrash, stats %+v", st)
	}
}

// TestConcurrentGetSharedHotSet verifies the fast path: when the working
// set fits the pool, concurrent readers mostly hit and stats stay exact.
func TestConcurrentGetSharedHotSet(t *testing.T) {
	const nPages = 16
	p := buildFile(t, 64, nPages)
	defer p.Close()

	const goroutines = 8
	const iters = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				pg, err := p.Get(PageID(rng.Intn(nPages)))
				if err != nil {
					t.Error(err)
					return
				}
				pg.Release()
			}
		}(int64(g + 100))
	}
	wg.Wait()

	st := p.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("lost lookups: hits %d + misses %d != %d", st.Hits, st.Misses, goroutines*iters)
	}
	if st.Reads != st.Misses {
		t.Fatalf("every file read is a miss: reads %d != misses %d", st.Reads, st.Misses)
	}
	if st.Misses > nPages {
		t.Fatalf("hot set misses %d > page count %d (double loads?)", st.Misses, nPages)
	}
}

// TestConcurrentReadersWithCheckpoints interleaves readers with Flush and
// Sync, which walk the whole pool under its mutex.
func TestConcurrentReadersWithCheckpoints(t *testing.T) {
	const nPages = 64
	p := buildFile(t, 16, nPages)
	defer p.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg, err := p.Get(PageID(rng.Intn(nPages)))
				if err != nil {
					t.Error(err)
					return
				}
				if got := binary.LittleEndian.Uint64(pg.Data()); got >= nPages {
					t.Errorf("garbage page content %d", got)
				}
				pg.Release()
			}
		}(int64(g + 7))
	}
	for i := 0; i < 50; i++ {
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
