package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segdiff"
)

// TestServeSoak is the end-to-end harness: a real listener, several
// concurrent clients querying while a writer ingests continuously,
// with responses checked element-identical against direct Collection
// calls. The identity trick: the "frozen" sensors are never written
// during the soak, so a sensor-filtered query over them has exactly
// one right answer no matter how ingest interleaves. After the soak
// the writer quiesces and the full-collection response is compared
// too. Run under -race this doubles as the concurrency test.
func TestServeSoak(t *testing.T) {
	frozen := []string{"fz0", "fz1", "fz2", "fz3"}
	writable := []string{"wr0", "wr1"}

	col := segdiff.NewMemoryCollection(testOptions())
	var seedBatches []segdiff.SensorBatch
	for i, name := range frozen {
		seedBatches = append(seedBatches, batchFor(name, i, 500))
	}
	for i, name := range writable {
		seedBatches = append(seedBatches, batchFor(name, 10+i, 100))
	}
	if err := col.AppendAll(seedBatches); err != nil {
		t.Fatalf("seed: %v", err)
	}
	defer col.Close()

	baseline := runtime.NumGoroutine()
	// Admission rejection has its own test; the soak gets enough slots
	// that every client is always admitted regardless of GOMAXPROCS.
	s := New(col, Config{ReadSlots: 64})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	cl := segdiff.NewClient(s.URL(), nil)
	ctx := context.Background()

	soak := 1500 * time.Millisecond
	if testing.Short() {
		soak = 300 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, appends atomic.Int64
	errc := make(chan error, 16)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// The writer: continuous ingest through the HTTP path, touching
	// only the writable sensors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 100 // first free point index after the 100-point seed
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var batches []segdiff.SensorBatch
			for j, name := range writable {
				pts := make([]segdiff.Point, 20)
				for k := range pts {
					pts[k] = segdiff.Point{
						Time:  int64((next + k) * 60),
						Value: 10 + float64((i+j+k)%5),
					}
				}
				batches = append(batches, segdiff.SensorBatch{Sensor: name, Points: pts})
			}
			next += 20
			if _, _, err := cl.Append(ctx, batches); err != nil {
				fail("writer append: %w", err)
				return
			}
			appends.Add(1)
		}
	}()

	// K concurrent clients querying frozen sensors, each comparing the
	// wire response against the direct Collection call.
	const K = 8
	for c := 0; c < K; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pick := frozen[rng.Intn(len(frozen)):]
				span := time.Duration(1+rng.Intn(4)) * time.Hour
				jump := rng.Intn(2) == 1
				v := -3.0
				if jump {
					v = 3.0
				}
				var got, want []segdiff.SensorMatches
				var gerr, werr error
				if jump {
					got, gerr = cl.Jumps(ctx, span, v, pick...)
					want, werr = col.JumpsContext(ctx, span, v, pick...)
				} else {
					got, gerr = cl.Drops(ctx, span, v, pick...)
					want, werr = col.DropsContext(ctx, span, v, pick...)
				}
				if gerr != nil || werr != nil {
					fail("client %d: wire err %v, direct err %v", c, gerr, werr)
					return
				}
				if !reflect.DeepEqual(got, want) {
					fail("client %d: span=%v v=%v sensors=%v\nwire   %+v\ndirect %+v",
						c, span, v, pick, got, want)
					return
				}
				queries.Add(1)
			}
		}(c)
	}

	time.Sleep(soak)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if queries.Load() == 0 || appends.Load() == 0 {
		t.Fatalf("soak did no work: %d queries, %d appends", queries.Load(), appends.Load())
	}
	t.Logf("soak: %d identical queries across %d clients, %d concurrent appends",
		queries.Load(), K, appends.Load())

	// Quiesced: with the writer stopped, the full-collection response
	// (writable sensors included) must match too.
	got, err := cl.Drops(ctx, time.Hour, -3)
	if err != nil {
		t.Fatalf("quiesced drops: %v", err)
	}
	want, err := col.DropsContext(ctx, time.Hour, -3)
	if err != nil {
		t.Fatalf("quiesced direct drops: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quiesced full-collection mismatch:\nwire   %+v\ndirect %+v", got, want)
	}

	// Drain and check for leaked goroutines: after Shutdown joins the
	// serve goroutine and idle client conns close, the count must come
	// back to (about) the pre-Start baseline.
	// The client's transport dials spare connections under load; one that
	// never carried a request counts as idle for http.Server.Shutdown only
	// once it is 5 s old, which would eat the whole drain budget.
	http.DefaultClient.CloseIdleConnections()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}
