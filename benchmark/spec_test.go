package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// spec.go the same thing: regenerate with "go run ./benchmark -spec".
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; run: go run ./benchmark -spec > BENCHMARK.json")
	}
}

// TestSpecWithinContract checks the limits the driver refuses a
// BENCHMARK.json over.
func TestSpecWithinContract(t *testing.T) {
	data, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("setup_s (s, lower) must be an end-to-end metric")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", m.Name)
		}
	}
}

func TestContractLine(t *testing.T) {
	o := &outcome{attempted: 12, failed: 0}
	for i := range endToEnd {
		o.endToEnd = append(o.endToEnd, measured{Value: float64(i) + 0.5, N: 3})
	}
	var buf bytes.Buffer
	if err := o.printContractLine(&buf, false); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("the result line is not one JSON object: %v\n%s", err, buf.String())
	}
	if len(line) != 4 {
		t.Errorf("the result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want every end-to-end metric (%d)", len(metrics), len(endToEnd))
	}
	for i, s := range endToEnd {
		if got := metrics[s.Name]; got.Unit != s.Unit || got.Value != float64(i)+0.5 {
			t.Errorf("%s = %+v on the line", s.Name, got)
		}
	}
	if string(line["correct"]) != "true" || string(line["attempted"]) != "12" || string(line["failed"]) != "0" {
		t.Errorf("line = %s", buf.String())
	}
}
