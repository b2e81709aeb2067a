package server

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"segdiff"
)

// broadCollection holds one sensor, "walk": n ten-minute samples from
// 2023 on of a random walk with one 30-unit cliff halfway, so a search
// over it answers with Unix-second timestamps, a broad one (8 h, −1)
// with over ten thousand matches and a narrow one (30 min, −25) with a
// few around the cliff.
func broadCollection(tb testing.TB, n int) *segdiff.Collection {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]segdiff.Point, n)
	v := 50.0
	for i := range pts {
		v += rng.NormFloat64()
		if i == n/2 {
			v -= 30
		}
		pts[i] = segdiff.Point{Time: 1_700_000_000 + int64(i)*600, Value: v}
	}
	col := segdiff.NewMemoryCollection(testOptions())
	tb.Cleanup(func() { col.Close() })
	if err := col.AppendAll([]segdiff.SensorBatch{{Sensor: "walk", Points: pts}}); err != nil {
		tb.Fatal(err)
	}
	return col
}

// discardResponse is an http.ResponseWriter that keeps no body, so what a
// request allocates is the handler's own.
type discardResponse struct {
	h     http.Header
	bytes int
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// TestSearchAllocationsIndependentOfAnswer pins the served answer path:
// a /v1/drops request allocates the same small number of times whether it
// returns ten matches or tens of thousands, so nothing is allocated per
// match between the scan and the socket.
func TestSearchAllocationsIndependentOfAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	col := broadCollection(t, 800)
	h := New(col, Config{SlowThreshold: time.Hour}).Handler()
	allocs := func(span time.Duration, v float64, minMatches, maxMatches int) float64 {
		t.Helper()
		ms, err := col.Drops(span, v)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ms[0].Matches); n < minMatches || n > maxMatches {
			t.Fatalf("span %v, v %v: %d matches, want %d to %d", span, v, n, minMatches, maxMatches)
		}
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/drops?span=%s&v=%g", span, v), nil)
		w := &discardResponse{h: http.Header{}}
		return testing.AllocsPerRun(20, func() {
			w.bytes = 0
			h.ServeHTTP(w, req)
			if w.bytes == 0 {
				t.Fatal("empty response")
			}
		})
	}
	narrow := allocs(30*time.Minute, -25, 1, 30)
	broad := allocs(8*time.Hour, -1, 10_000, 1<<30)
	t.Logf("allocations per request: %v narrow, %v broad", narrow, broad)
	if narrow > 100 || broad > narrow+1 {
		t.Fatalf("a request allocates %v times for a narrow answer and %v for a broad one, want the same, at most 100", narrow, broad)
	}
}

// BenchmarkServeDrops serves a broad /v1/drops answer through the handler,
// from the scan to the encoded bytes, and reports the cost per match.
func BenchmarkServeDrops(b *testing.B) {
	col := broadCollection(b, 800)
	ms, err := col.Drops(8*time.Hour, -1)
	if err != nil {
		b.Fatal(err)
	}
	h := New(col, Config{SlowThreshold: time.Hour}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/drops?span=8h&v=-1", nil)
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ms[0].Matches)), "ns/match")
}

// BenchmarkAppendSensorMatches encodes a broad answer of Unix-second
// timestamps into a discarded stream. Its matches come in runs of five
// sharing an end segment, as answers in (t_B, t_D) order do: list Q's
// first 300 queries average 4.9 matches per end segment on a 545-day
// sensor.
func BenchmarkAppendSensorMatches(b *testing.B) {
	sm := segdiff.SensorMatches{Sensor: "walk", Matches: make([]segdiff.Match, 10_000)}
	for i := range sm.Matches {
		t, end := 1_700_000_000+int64(i)*600, 1_700_003_000+int64(i/5)*3000
		sm.Matches[i] = segdiff.Match{
			From: segdiff.Interval{Start: t, End: t + 600},
			To:   segdiff.Interval{Start: end, End: end + 600},
		}
	}
	bw := bufio.NewWriterSize(io.Discard, searchBufBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := appendSensorMatches(bw, sm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sm.Matches)), "ns/match")
}
