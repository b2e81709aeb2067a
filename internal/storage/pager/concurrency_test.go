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
	p.ResetStats()

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
// DropCache (checkpoint operations take the exclusive lock) to shake out
// lock-ordering bugs between mu and the LRU latch.
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
			if err := p.DropCache(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentResetStats hammers counter resets and snapshots against
// readers bumping the same counters, and then verifies the cells are
// coherently zeroable. resetStats used to overwrite the whole
// statCounters struct with plain stores — mixed plain/atomic access that
// the atomicmix analyzer now rejects statically (its structReset fixture
// is this exact shape); this test pins the dynamic behavior of the
// per-cell atomic replacement under -race.
func TestConcurrentResetStats(t *testing.T) {
	const nPages = 64
	p := buildFile(t, 16, nPages)
	defer func() {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
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
					select {
					case errCh <- err:
					default:
					}
					return
				}
				pg.Release()
			}
		}(int64(g))
	}
	for i := 0; i < 200; i++ {
		p.ResetStats()
		_ = p.Stats()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// After the final reset+traffic the counters must still be coherent:
	// a fresh reset zeroes them completely.
	p.ResetStats()
	s := p.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Reads != 0 {
		t.Fatalf("counters not zeroed after ResetStats: %+v", s)
	}
}
