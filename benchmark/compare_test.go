package main

import (
	"bytes"
	"strings"
	"testing"
)

func runsOf(better string, bound float64, vals ...float64) *metricResult {
	m := &metricResult{Unit: "ms", Better: better, Bound: bound}
	for _, v := range vals {
		m.add(measured{Value: v, N: 100})
	}
	return m
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name     string
		old, cur *metricResult
		want     verdict
	}{
		{"same", runsOf("lower", 0.1, steady...), runsOf("lower", 0.1, steady...), withinBound},
		{"slower inside the bound", runsOf("lower", 0.1, steady...), runsOf("lower", 0.1, shifted(1.08)...), withinBound},
		{"slower beyond the bound", runsOf("lower", 0.1, steady...), runsOf("lower", 0.1, shifted(1.15)...), worse},
		{"faster beyond the bound", runsOf("lower", 0.1, steady...), runsOf("lower", 0.1, shifted(0.8)...), better},
		{"throughput fell", runsOf("higher", 0.1, steady...), runsOf("higher", 0.1, shifted(0.8)...), worse},
		{"throughput rose", runsOf("higher", 0.1, steady...), runsOf("higher", 0.1, shifted(1.3)...), better},
		{"new side too noisy", runsOf("lower", 0.1, steady...), runsOf("lower", 0.1, 60, 100, 140, 180, 90), unresolved},
		{"old side too noisy", runsOf("lower", 0.1, 60, 100, 140, 180, 90), runsOf("lower", 0.1, shifted(2)...), unresolved},
		{"single runs compare medians", runsOf("lower", 0.1, 100), runsOf("lower", 0.1, 120), worse},
		{"metric gone", runsOf("lower", 0.1, steady...), nil, missing},
	}
	for _, c := range cases {
		if got, _ := judge(c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, change := judge(runsOf("lower", 0.1, 100), runsOf("lower", 0.1, 120)); change < 0.199 || change > 0.201 {
		t.Errorf("change = %g, want 0.2", change)
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(p50 float64) *results {
		wr := &workloadResult{EndToEnd: map[string]*metricResult{}}
		for _, s := range endToEnd {
			wr.EndToEnd[s.Name] = runsOf(s.Better, s.Bound, 50, 50.5, 49.5)
		}
		wr.EndToEnd["query_p50_ms"] = runsOf("lower", 0.1, p50, p50*1.01, p50*0.99)
		return &results{Schema: schemaVersion, Workloads: map[string]*workloadResult{"query-wide": wr}}
	}
	var out bytes.Buffer
	if compareResults(&out, mk(10), mk(10.5)) {
		t.Errorf("a 5%% shift inside a 10%% bound must not regress:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(&out, mk(10), mk(12)) {
		t.Errorf("a 20%% shift beyond a 10%% bound must regress:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "query_p50_ms") || !strings.Contains(out.String(), string(worse)) {
		t.Errorf("the report must name the metric and its verdict:\n%s", out.String())
	}
	out.Reset()
	gone := mk(10)
	delete(gone.Workloads, "query-wide")
	if !compareResults(&out, mk(10), gone) {
		t.Errorf("a workload missing from the new set must fail the comparison")
	}
}
