package main

import (
	"testing"
	"time"
)

// mkSpan builds a span of the given duration in milliseconds.
func mkSpan(id int, trace, name, sensor string, durMS int64) span {
	return span{ID: id, Trace: trace, Name: name, Sensor: sensor, StartNS: 0, EndNS: durMS * int64(time.Millisecond)}
}

func TestSelfTimeSubtraction(t *testing.T) {
	rec := &recorder{}
	// One query through the whole read ladder, two sensors under the
	// fan-out, replayed rung by rung.
	rec.spans = []span{
		mkSpan(1, "q0", "client.search", "", 40),
		mkSpan(2, "q0", "server.search", "", 30),
		mkSpan(3, "q0", "collection.search", "", 24),
		mkSpan(4, "q0", "core.search", "a", 20),
		mkSpan(5, "q0", "core.search", "b", 16),
		mkSpan(6, "q0", "sqlmini.query", "a", 15),
		mkSpan(7, "q0", "sqlmini.query", "b", 13),
		// A second trace must not be confused with the first.
		mkSpan(8, "q1", "client.search", "", 7),
		mkSpan(9, "q1", "server.search", "", 9), // noise: longer than its parent
	}
	rec.link()
	wantParent := map[int]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 3, 6: 4, 7: 5, 8: 0, 9: 8}
	for _, s := range rec.spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d (%s %s) has parent %d, want %d", s.ID, s.Name, s.Sensor, s.Parent, wantParent[s.ID])
		}
	}

	self := selfTimes(rec.spans, 2)
	want := map[int]time.Duration{
		1: 10 * time.Millisecond, // 40 - 30
		2: 6 * time.Millisecond,  // 30 - 24
		3: 6 * time.Millisecond,  // 24 - (20+16)/2: the sensors ran side by side
		4: 5 * time.Millisecond,  // 20 - 15
		5: 3 * time.Millisecond,  // 16 - 13
		6: 15 * time.Millisecond, // bottom rung: all its own
		7: 13 * time.Millisecond,
		8: -2 * time.Millisecond, // kept, so that means stay unbiased
		9: 9 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	// Along the critical path the self times add up to the top rung.
	path := self[1] + self[2] + self[3] + (self[4]+self[5]+self[6]+self[7])/2
	if path != 40*time.Millisecond {
		t.Errorf("self times along the critical path sum to %v, want the top rung's 40ms", path)
	}

	if got := spanTotals(rec.spans, "core.search", nil); len(got) != 1 || got[0] != 36 {
		t.Errorf("core.search total per trace = %v, want [36]", got)
	}
	if got := spanTotals(rec.spans, "client.search", self); len(got) != 2 || got[0] != 10 || got[1] != -2 {
		t.Errorf("client.search self per trace = %v, want [10 -2]", got)
	}
}

func TestEverySpanHasAParentOrIsARoot(t *testing.T) {
	roots := 0
	for _, r := range ladder {
		if r.parent == "" {
			roots++
			continue
		}
		if rungOf(r.parent).name != r.parent || rungOf(r.parent).parent == r.name {
			t.Errorf("rung %s names parent %s, which is not a rung above it", r.name, r.parent)
		}
		if rungOf(r.parent).perSensor && !r.perSensor {
			t.Errorf("rung %s sits under the per-sensor rung %s but is not per sensor", r.name, r.parent)
		}
	}
	if roots != 2 {
		t.Errorf("%d root rungs, want one per ladder", roots)
	}
}
