package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.queries").Add(3)

	d, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := d.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	base := "http://" + d.Addr()

	var snap Snapshot
	if err := json.Unmarshal(getBody(t, base+"/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("engine.queries") != 3 {
		t.Fatalf("metrics snapshot = %+v", snap)
	}

	// expvar and the pprof index must respond; their bodies are owned by
	// the stdlib, presence is enough.
	if len(getBody(t, base+"/debug/vars")) == 0 {
		t.Fatal("empty /debug/vars")
	}
	if len(getBody(t, base+"/debug/pprof/")) == 0 {
		t.Fatal("empty /debug/pprof/")
	}
}

// TestDebugServerNilSlowLog checks that the slow log is opt-in: a mux
// built without one, which is what ServeDebug serves, has no /slow route,
// and a mux built with one serves its entries there.
func TestDebugServerNilSlowLog(t *testing.T) {
	d, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := d.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	resp, err := http.Get("http://" + d.Addr() + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /slow without a slow log: %s, want 404", resp.Status)
	}

	slow := NewSlowLog(0, 4)
	slow.Note(SlowQuery{SQL: "SELECT 1", Wall: time.Second, Rows: 1})
	srv := httptest.NewServer(DebugMux(NewRegistry(), slow))
	defer srv.Close()
	var entries []SlowQuery
	if err := json.Unmarshal(getBody(t, srv.URL+"/slow"), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].SQL != "SELECT 1" {
		t.Fatalf("slow entries = %+v", entries)
	}
}

func TestDebugServerBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:bogus", NewRegistry()); err == nil {
		t.Fatal("expected listen error")
	}
}
