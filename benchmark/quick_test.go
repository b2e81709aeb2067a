package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestQuickTier runs the whole benchmark pipeline — build segdiffd, serve
// a child process, bulk load, appends, queries, drain, restart, every
// output check, the traced replay of both ladders and the micro rows —
// on a corpus small enough for a few seconds, so "go test ./..." notices
// when the benchmark rots.
func TestQuickTier(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs segdiffd; skipped under -short")
	}
	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("quick tier exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("quick tier took %v, over its 15s budget", d)
	}
	out := stdout.String()
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if !strings.Contains(out, "  "+s.Name+" ") {
				t.Errorf("the output does not list %s", s.Name)
			}
		}
	}
	if !strings.Contains(out, "failed=0") {
		t.Errorf("the quick tier reported failures:\n%s", out)
	}

	// The traced run leaves its spans behind: every span has a parent or
	// is the root of its ladder.
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, buildDir, "spans-quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	names := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, r := range ladder {
		if names[r.name] == 0 {
			t.Errorf("no %s span was recorded", r.name)
		}
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		want := rungOf(s.Name).parent
		switch p, ok := byID[s.Parent]; {
		case want == "" && s.Parent != 0:
			t.Errorf("root span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		case want != "" && (!ok || p.Name != want || p.Trace != s.Trace):
			t.Errorf("span %d (%s, trace %s) has parent %+v, want a %s span of the same trace", s.ID, s.Name, s.Trace, p, want)
		}
	}
}
