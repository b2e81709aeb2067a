package segdiff

// Concurrency coverage for the parallel read path: stress tests that must
// pass under -race, result-identity checks between sequential and parallel
// search execution, and the Benchmark*Parallel targets quoted in PR
// descriptions (shared-Index throughput and multi-sensor fanout).

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// buildIndex ingests n deterministic noisy points (seeded drops included)
// into a fresh in-memory index with the given options.
func buildIndex(t testing.TB, opts Options, seed int64, n int) *Index {
	t.Helper()
	ix, err := NewMemory(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AppendPoints(points(seed, n)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// TestConcurrentSearchStress hammers one shared Index with concurrent
// Drops, Jumps and Stats calls and checks every result against the
// single-threaded answer. Run with -race.
func TestConcurrentSearchStress(t *testing.T) {
	ix := buildIndex(t, Options{Epsilon: 0.2, Window: 8 * time.Hour}, 7, 1500)

	wantDrops, err := ix.Drops(30*time.Minute, -4)
	if err != nil {
		t.Fatal(err)
	}
	wantJumps, err := ix.Jumps(30*time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantDrops) == 0 {
		t.Fatal("baseline search found no drops; stress test would be vacuous")
	}

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					got, err := ix.Drops(30*time.Minute, -4)
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(got, wantDrops) {
						errCh <- fmt.Errorf("goroutine %d: concurrent Drops diverged: got %d matches, want %d", g, len(got), len(wantDrops))
						return
					}
				case 1:
					got, err := ix.Jumps(30*time.Minute, 4)
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(got, wantJumps) {
						errCh <- fmt.Errorf("goroutine %d: concurrent Jumps diverged", g)
						return
					}
				case 2:
					st, err := ix.Stats()
					if err != nil {
						errCh <- err
						return
					}
					if st.FeatureRows <= 0 || st.DiskBytes() <= 0 {
						errCh <- fmt.Errorf("goroutine %d: corrupt stats %+v", g, st)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestWriterConcurrentWithReaders runs a single ingesting goroutine —
// appending, committing, aborting uncommitted appends and pruning —
// against a crowd of searching goroutines. Searches read the last
// published snapshot of the committed segments and take no engine lock,
// so readers never wait on the writer and the writer never waits on
// readers: every search sees some committed state and never errors or
// returns malformed matches. Run with -race.
func TestWriterConcurrentWithReaders(t *testing.T) {
	ix, err := NewMemory(Options{Epsilon: 0.2, Window: 8 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	pts := points(11, 1000)
	// Seed enough history that searches have work to do from the start.
	if err := ix.AppendPoints(pts[:400]); err != nil {
		t.Fatal(err)
	}

	// Readers query until the writer is done, at least a few times each,
	// pausing between queries so that two cores still leave the writer
	// room under the race detector.
	done := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= 4 {
					select {
					case <-done:
						return
					default:
					}
				}
				ms, err := ix.Drops(10*time.Minute, -6)
				if err != nil {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
				for _, m := range ms {
					if m.From.Start > m.From.End || m.To.Start > m.To.End || m.From.End > m.To.Start && m.From != m.To {
						errCh <- fmt.Errorf("reader: malformed match %+v", m)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// The single writer: batches of appends, each committed with Sync;
	// every third batch is followed by appends it then aborts, and one
	// prune trims the oldest history (a small cutoff: deleting feature
	// rows is the slowest write under the race detector).
	for i, batch := 400, 0; i < len(pts); i, batch = i+150, batch+1 {
		end := min(i+150, len(pts))
		if err := ix.AppendPoints(pts[i:end]); err != nil {
			t.Fatal(err)
		}
		if batch%3 == 0 && end+50 <= len(pts) {
			for _, p := range pts[end : end+50] {
				if err := ix.Append(p.Time, p.Value); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Abort(); err != nil {
				t.Fatal(err)
			}
		}
		if batch == 1 {
			if _, err := ix.Prune(pts[100].Time); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ix.Finish(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// After the writer finished, readers and writer agree on the world.
	ms, err := ix.Drops(time.Hour, -4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no drops found after concurrent ingest of a droppy series")
	}
}

// setGOMAXPROCS sets GOMAXPROCS, which bounds the Collection's worker
// pools, until the test ends.
func setGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCollectionFanoutBounded checks the bounded multi-sensor fanout still
// returns complete, name-ordered results when the pool is smaller than,
// equal to, and larger than the sensor count.
func TestCollectionFanoutBounded(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		setGOMAXPROCS(t, workers)
		c := NewMemoryCollection(Options{Epsilon: 0.2, Window: 8 * time.Hour})
		const sensors = 5
		for s := 0; s < sensors; s++ {
			ix, err := c.Sensor(fmt.Sprintf("s%02d", s))
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.AppendPoints(points(int64(s+1), 800)); err != nil {
				t.Fatal(err)
			}
			if err := ix.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Drops(time.Hour, -3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != sensors {
			t.Fatalf("workers=%d: got %d sensor results, want %d", workers, len(res), sensors)
		}
		total := 0
		for i, sm := range res {
			if want := fmt.Sprintf("s%02d", i); sm.Sensor != want {
				t.Fatalf("workers=%d: result %d is sensor %q, want %q", workers, i, sm.Sensor, want)
			}
			total += len(sm.Matches)
		}
		if total == 0 {
			t.Fatalf("workers=%d: no matches across %d droppy sensors", workers, sensors)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// benchIndex builds the shared benchmark index (kept small: one search on
// it takes tens of milliseconds).
func benchIndex(b *testing.B, opts Options) *Index {
	return buildIndex(b, opts, 42, 2000)
}

// BenchmarkIndexDropsSerial is the single-client search latency baseline.
func BenchmarkIndexDropsSerial(b *testing.B) {
	ix := benchIndex(b, Options{Epsilon: 0.2, Window: 8 * time.Hour})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Drops(30*time.Minute, -4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexDropsParallel measures aggregate search throughput with
// GOMAXPROCS clients searching one shared Index at once. Each search scans
// the published segment snapshot without a lock and takes its working
// buffers from a shared pool, so throughput should scale with the cores.
func BenchmarkIndexDropsParallel(b *testing.B) {
	ix := benchIndex(b, Options{Epsilon: 0.2, Window: 8 * time.Hour})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ix.Drops(30*time.Minute, -4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCollectionDropsParallel measures the multi-sensor fanout: one
// Drops call searching every sensor of a collection through the bounded
// worker pool.
func BenchmarkCollectionDropsParallel(b *testing.B) {
	c := NewMemoryCollection(Options{Epsilon: 0.2, Window: 8 * time.Hour})
	defer c.Close()
	for s := 0; s < 6; s++ {
		ix, err := c.Sensor(fmt.Sprintf("s%02d", s))
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.AppendPoints(points(int64(s+1), 2000)); err != nil {
			b.Fatal(err)
		}
		if err := ix.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Drops(30*time.Minute, -4); err != nil {
			b.Fatal(err)
		}
	}
}
