package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		SQL:    "SELECT 1",
		Mode:   "auto",
		WallNS: 1500,
		Rows:   3,
		Nodes: []*TraceNode{
			{
				Plan:         "FUSED INDEX SCAN t_a ON t BRANCHES 2",
				Branch:       -1,
				EstRows:      13,
				RowsExamined: 10,
				RowsReturned: 7,
				PagesRead:    4,
				PagesHit:     2,
				WallNS:       1000,
				Children: []*TraceNode{
					{Plan: "INDEX SCAN t_a ON t", Branch: 0, EstRows: 4, RowsExamined: 5, RowsReturned: 3, WallNS: 400},
					{Plan: "INDEX SCAN t_a ON t", Branch: 1, EstRows: -1, RowsExamined: 5, RowsReturned: 4, WallNS: 600},
				},
			},
			{Plan: "SEQ SCAN u", Branch: 2, EstRows: -1, RowsExamined: 6, RowsReturned: 1, PagesRead: 1, ZoneSkipped: 2, WallNS: 500},
		},
	}
}

func TestTraceLines(t *testing.T) {
	lines := sampleTrace().Lines()
	want := []string{
		"FUSED INDEX SCAN t_a ON t BRANCHES 2 (actual rows=7 examined=10 pages_read=4 pages_hit=2 zone_skipped=0 wall=1µs est_rows=13)",
		"  BRANCH 0: INDEX SCAN t_a ON t (actual rows=3 examined=5 pages_read=0 pages_hit=0 zone_skipped=0 wall=400ns est_rows=4)",
		"  BRANCH 1: INDEX SCAN t_a ON t (actual rows=4 examined=5 pages_read=0 pages_hit=0 zone_skipped=0 wall=600ns)",
		"SEQ SCAN u (actual rows=1 examined=6 pages_read=1 pages_hit=0 zone_skipped=2 wall=500ns)",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %q, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}
}

func TestNormalizeWall(t *testing.T) {
	in := "SEQ SCAN u (actual rows=1 examined=6 pages_read=1 pages_hit=0 zone_skipped=2 wall=512.3µs)"
	got := NormalizeWall(in)
	if !strings.Contains(got, "wall=X)") || strings.Contains(got, "512") {
		t.Fatalf("normalize failed: %q", got)
	}
}

func TestTraceTotals(t *testing.T) {
	tr := sampleTrace()
	if got := tr.RowsExaminedTotal(); got != 26 {
		t.Fatalf("examined total = %d, want 26", got)
	}
	if got := tr.RowsReturnedTotal(); got != 15 {
		t.Fatalf("returned total = %d, want 15", got)
	}
	if got := tr.PagesReadTotal(); got != 5 {
		t.Fatalf("pages total = %d, want 5", got)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	raw, err := json.Marshal(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.SQL != "SELECT 1" || len(back.Nodes) != 2 || len(back.Nodes[0].Children) != 2 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
}
