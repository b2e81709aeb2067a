package segdiff

// Concurrency coverage for the batched write path: AppendAll fanout
// identity and stress tests that must pass under -race, plus the ingest
// throughput benchmarks quoted in PR descriptions.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestAppendAllMatchesSequential ingests the same multi-sensor workload
// through AppendAll (parallel, with split and duplicate sensor batches)
// and through per-sensor AppendPoints, and requires identical search
// results.
func TestAppendAllMatchesSequential(t *testing.T) {
	const sensors = 5
	setGOMAXPROCS(t, 4)
	opts := Options{Epsilon: 0.2, Window: 8 * time.Hour}

	// Parallel: two half-batches per sensor, interleaved across sensors, so
	// grouping and order preservation are both exercised.
	par := NewMemoryCollection(opts)
	defer par.Close()
	var batches []SensorBatch
	for s := 0; s < sensors; s++ {
		pts := points(int64(s+1), 1200)
		batches = append(batches, SensorBatch{Sensor: fmt.Sprintf("s%02d", s), Points: pts[:600]})
	}
	for s := 0; s < sensors; s++ {
		pts := points(int64(s+1), 1200)
		batches = append(batches, SensorBatch{Sensor: fmt.Sprintf("s%02d", s), Points: pts[600:]})
	}
	if err := par.AppendAll(batches); err != nil {
		t.Fatal(err)
	}
	if err := par.Finish(); err != nil {
		t.Fatal(err)
	}

	// Sequential reference.
	seq := NewMemoryCollection(Options{Epsilon: 0.2, Window: 8 * time.Hour})
	defer seq.Close()
	for s := 0; s < sensors; s++ {
		ix, err := seq.Sensor(fmt.Sprintf("s%02d", s))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.AppendPoints(points(int64(s+1), 1200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Finish(); err != nil {
		t.Fatal(err)
	}

	for _, q := range []struct {
		span time.Duration
		v    float64
	}{{30 * time.Minute, -4}, {time.Hour, -2}} {
		a, err := par.Drops(q.span, q.v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := seq.Drops(q.span, q.v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Drops(%v, %v): AppendAll and sequential ingest diverge", q.span, q.v)
		}
	}
}

// TestAppendAllError: a bad batch fails its own sensor only; the other
// sensors commit and stay searchable.
func TestAppendAllError(t *testing.T) {
	setGOMAXPROCS(t, 2)
	c := NewMemoryCollection(Options{Epsilon: 0.2, Window: 8 * time.Hour})
	defer c.Close()
	good := points(3, 500)
	bad := []Point{{Time: 100, Value: 1}, {Time: 50, Value: 2}} // time going backwards
	err := c.AppendAll([]SensorBatch{
		{Sensor: "good", Points: good},
		{Sensor: "bad", Points: bad},
	})
	if err == nil {
		t.Fatal("non-monotonic batch accepted")
	}
	ix, err := c.Sensor("good")
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := ix.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments == 0 {
		t.Fatal("good sensor lost its batch")
	}
}

// TestIngestConcurrentWithSearchStress runs AppendAll ingest rounds while
// a crowd of goroutines searches the same collection. Run with -race.
func TestIngestConcurrentWithSearchStress(t *testing.T) {
	const sensors = 4
	setGOMAXPROCS(t, 2)
	c := NewMemoryCollection(Options{Epsilon: 0.2, Window: 8 * time.Hour})
	defer c.Close()

	// Seed every sensor so searches have work from the start.
	all := make([][]Point, sensors)
	var seed []SensorBatch
	for s := 0; s < sensors; s++ {
		all[s] = points(int64(s+11), 1200)
		seed = append(seed, SensorBatch{Sensor: fmt.Sprintf("s%02d", s), Points: all[s][:400]})
	}
	if err := c.AppendAll(seed); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := c.Drops(30*time.Minute, -4)
				if err != nil {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
				for _, sm := range res {
					for _, m := range sm.Matches {
						if m.From.Start > m.From.End || m.To.Start > m.To.End {
							errCh <- fmt.Errorf("reader: malformed match %+v on %s", m, sm.Sensor)
							return
						}
					}
				}
			}
		}()
	}

	// Ingest the remainder in rounds while the readers run.
	for lo := 400; lo < 1200; lo += 400 {
		var round []SensorBatch
		for s := 0; s < sensors; s++ {
			round = append(round, SensorBatch{Sensor: fmt.Sprintf("s%02d", s), Points: all[s][lo : lo+400]})
		}
		if err := c.AppendAll(round); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	res, err := c.Drops(time.Hour, -3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sm := range res {
		total += len(sm.Matches)
	}
	if total == 0 {
		t.Fatal("no drops after concurrent multi-sensor ingest")
	}
}

// BenchmarkCollectionAppendAll measures multi-sensor ingest throughput
// through the bounded AppendAll pool.
func BenchmarkCollectionAppendAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewMemoryCollection(Options{Epsilon: 0.2, Window: 8 * time.Hour})
		var batches []SensorBatch
		for s := 0; s < 6; s++ {
			batches = append(batches, SensorBatch{Sensor: fmt.Sprintf("s%02d", s), Points: points(int64(s+1), 2000)})
		}
		b.StartTimer()
		if err := c.AppendAll(batches); err != nil {
			b.Fatal(err)
		}
		if err := c.Finish(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}
