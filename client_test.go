package segdiff_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"segdiff"
	"segdiff/internal/server"
)

// clientFixture is a collection served over httptest plus a Client
// pointed at it — the round-trip rig for the public client API.
func clientFixture(t *testing.T) (*segdiff.Collection, *segdiff.Client) {
	t.Helper()
	col := segdiff.NewMemoryCollection(segdiff.Options{Epsilon: 0.2, Window: 8 * time.Hour})
	t.Cleanup(func() { col.Close() })

	pts := make([]segdiff.Point, 300)
	for i := range pts {
		v := 12.0
		if i >= 150 {
			v = 4.0
		}
		pts[i] = segdiff.Point{Time: int64(i * 60), Value: v}
	}
	if err := col.AppendAll([]segdiff.SensorBatch{{Sensor: "probe", Points: pts}}); err != nil {
		t.Fatal(err)
	}

	srv := server.New(col, server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return col, segdiff.NewClient(hs.URL, hs.Client())
}

func TestClientRoundTrip(t *testing.T) {
	col, cl := clientFixture(t)
	ctx := context.Background()

	if err := cl.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	names, err := cl.Sensors(ctx)
	if err != nil || !reflect.DeepEqual(names, []string{"probe"}) {
		t.Fatalf("sensors = %v, %v", names, err)
	}

	got, err := cl.Drops(ctx, time.Hour, -3)
	if err != nil {
		t.Fatalf("drops: %v", err)
	}
	want, err := col.DropsContext(ctx, time.Hour, -3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drops over the wire differ:\n got %+v\nwant %+v", got, want)
	}
	if len(got) != 1 || len(got[0].Matches) == 0 {
		t.Fatalf("probe's drop went missing: %+v", got)
	}

	jumps, err := cl.Jumps(ctx, time.Hour, 3, "probe")
	if err != nil {
		t.Fatalf("jumps: %v", err)
	}
	wantJumps, err := col.JumpsContext(ctx, time.Hour, 3, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jumps, wantJumps) {
		t.Fatalf("jumps over the wire differ:\n got %+v\nwant %+v", jumps, wantJumps)
	}

	sensors, points, err := cl.Append(ctx, []segdiff.SensorBatch{
		{Sensor: "extra", Points: []segdiff.Point{{Time: 0, Value: 1}, {Time: 60, Value: 2}}},
	})
	if err != nil || sensors != 1 || points != 2 {
		t.Fatalf("append = (%d, %d, %v), want (1, 2, nil)", sensors, points, err)
	}

	tr, err := cl.Explain(ctx, "probe", false, time.Hour, -3)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if tr.SQL == "" || len(tr.Lines) == 0 {
		t.Fatalf("explain trace empty: %+v", tr)
	}
}

func TestClientErrors(t *testing.T) {
	_, cl := clientFixture(t)
	ctx := context.Background()

	var ae *segdiff.APIError
	if _, err := cl.Drops(ctx, time.Hour, -3, "ghost"); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("unknown sensor: %v", err)
	}
	if !strings.Contains(ae.Error(), "404") {
		t.Fatalf("APIError.Error() = %q, want the status in it", ae.Error())
	}
	if _, err := cl.Drops(ctx, time.Hour, 3); !errors.As(err, &ae) || ae.StatusCode != 400 {
		t.Fatalf("positive drop threshold: %v", err)
	}
	if _, err := cl.Jumps(ctx, 0, 3); !errors.As(err, &ae) || ae.StatusCode != 400 {
		t.Fatalf("zero span: %v", err)
	}
	if _, err := cl.Explain(ctx, "ghost", false, time.Hour, -3); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("explain unknown sensor: %v", err)
	}
	if _, _, err := cl.Append(ctx, []segdiff.SensorBatch{{Sensor: "bad name"}}); !errors.As(err, &ae) || ae.StatusCode != 400 {
		t.Fatalf("bad append: %v", err)
	}

	// A canceled context surfaces as a transport error, not a hang.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := cl.Sensors(canceled); err == nil {
		t.Fatal("canceled context did not error")
	}
}

func TestClientAgainstBrokenServer(t *testing.T) {
	// A server speaking garbage must yield decode errors, not panics.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json at all"))
	}))
	defer garbage.Close()
	cl := segdiff.NewClient(garbage.URL, nil)
	ctx := context.Background()
	if _, err := cl.Sensors(ctx); err == nil {
		t.Fatal("garbage sensors response did not error")
	}
	if _, err := cl.Drops(ctx, time.Hour, -3); err == nil {
		t.Fatal("garbage drops response did not error")
	}
	if _, _, err := cl.Append(ctx, nil); err == nil {
		t.Fatal("garbage append response did not error")
	}
	if _, err := cl.Explain(ctx, "x", true, time.Hour, 3); err == nil {
		t.Fatal("garbage explain response did not error")
	}
}

// TestClientDecodesLongLine streams a search response whose first line
// is over 17 MiB — a broad drop on one long history returns hundreds of
// thousands of pairs — and expects every line back whole.
func TestClientDecodesLongLine(t *testing.T) {
	const base = 1_700_000_000
	deep := make([]segdiff.Match, 200_000)
	for i := range deep {
		t0 := int64(base + 60*i)
		deep[i] = segdiff.Match{
			From: segdiff.Interval{Start: t0, End: t0 + 60},
			To:   segdiff.Interval{Start: t0 + 3600, End: t0 + 3660},
		}
	}
	want := []segdiff.SensorMatches{
		{Sensor: "deep", Matches: deep},
		{Sensor: "quiet", Matches: []segdiff.Match{}},
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, sm := range want {
		if err := enc.Encode(sm); err != nil {
			t.Fatal(err)
		}
	}
	if n := bytes.IndexByte(body.Bytes(), '\n'); n <= 17<<20 {
		t.Fatalf("first line is %d bytes, want over 17 MiB", n)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body.Bytes())
	}))
	defer srv.Close()
	got, err := segdiff.NewClient(srv.URL, nil).Drops(context.Background(), time.Hour, -3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %d sensors back, want %d with %d and 0 matches", len(got), len(want), len(deep))
	}
}

// TestContextSearchCancellation covers the new context plumbing from
// the public API down: an already-canceled context must stop both the
// single-index and collection search paths.
func TestContextSearchCancellation(t *testing.T) {
	col := segdiff.NewMemoryCollection(segdiff.Options{Epsilon: 0.2, Window: 8 * time.Hour})
	defer col.Close()
	pts := make([]segdiff.Point, 2000)
	for i := range pts {
		pts[i] = segdiff.Point{Time: int64(i * 60), Value: float64(i % 40)}
	}
	if err := col.AppendAll([]segdiff.SensorBatch{{Sensor: "s", Points: pts}}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := col.DropsContext(ctx, time.Hour, -3); !errors.Is(err, context.Canceled) {
		t.Fatalf("collection search under canceled ctx: %v", err)
	}
	ix, err := col.Sensor("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.JumpsContext(ctx, time.Hour, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("index search under canceled ctx: %v", err)
	}

	// An expired deadline maps to DeadlineExceeded, the 504 signal.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := ix.DropsContext(dctx, time.Hour, -3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("index search under expired deadline: %v", err)
	}

	// And a live context still answers, identically to the plain call.
	got, err := col.DropsContext(context.Background(), time.Hour, -3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := col.Drops(time.Hour, -3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DropsContext != Drops:\n got %+v\nwant %+v", got, want)
	}
}

func TestValidSensorName(t *testing.T) {
	for name, want := range map[string]bool{
		"alpha":    true,
		"a_b-c.9":  true,
		"":         false,
		"bad name": false,
		"semi;x":   false,
	} {
		if got := segdiff.ValidSensorName(name); got != want {
			t.Errorf("ValidSensorName(%q) = %v, want %v", name, got, want)
		}
	}
}
