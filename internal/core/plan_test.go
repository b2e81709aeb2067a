package core

// EXPLAIN-based guard for the access-path claim of Section 5.2: every
// branch of the search union must execute as a B-tree index scan over the
// intended corner index under PlanAuto, never a sequential scan — and the
// fusion pass must group the branches that share a corner index into one
// fused scan unit.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"segdiff/internal/feature"
	"segdiff/internal/storage/sqlmini"
)

// branchPlan is the index one union branch is required to pick.
type branchPlan struct {
	table string
	index string
	bound string // the dt column whose range drives the scan
}

// expectedBranchPlans lists, in union-branch order, the index each branch
// of searchQueries(kind) must use under PlanAuto.
//
// Point query i ranges on dt_i, so it matches the corner index
// <table>_c<i>. Line query i also resolves to <table>_c<i>: the planner
// uses an equality prefix plus one range column, the line predicate has no
// equalities, so every candidate (c_i, c_{i+1}, l_i) scores the same
// single dt range and the tie goes to the first-created index, c_i.
func expectedBranchPlans(kind feature.Kind) []branchPlan {
	var out []branchPlan
	for nc := 1; nc <= 3; nc++ {
		name := tableName(kind, nc)
		for i := 1; i <= nc; i++ { // point queries
			out = append(out, branchPlan{name, fmt.Sprintf("%s_c%d", name, i), fmt.Sprintf("dt%d", i)})
		}
		for i := 1; i < nc; i++ { // line queries
			out = append(out, branchPlan{name, fmt.Sprintf("%s_c%d", name, i), fmt.Sprintf("dt%d", i)})
		}
	}
	return out
}

// explainSearch runs EXPLAIN over the full search union for (kind, T, v)
// and returns the plan rows.
func explainSearch(t *testing.T, s *Store, kind feature.Kind, T int64, v float64) []string {
	t.Helper()
	var args []sqlmini.Value
	for _, q := range searchQueries(kind) {
		args = append(args, q.args(T, v)...)
	}
	rows, err := s.db.Query("EXPLAIN "+searchUnionSQL[kind], args...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, rows.Len())
	for i, row := range rows.Data {
		out[i] = row[0].S
	}
	return out
}

// parseBranchPlans reconstructs the per-branch plan lines from fused
// EXPLAIN output: singleton units print one "INDEX SCAN ix ON t ..." line
// that covers their only branch, fused units print a "FUSED INDEX SCAN ix
// ON t BRANCHES k" header followed by k indented "  BRANCH <i>: ..."
// lines. The result maps absolute branch position to (index, table,
// plan-detail line).
func parseBranchPlans(t *testing.T, lines []string, nBranches int) []branchPlan {
	t.Helper()
	plans := make([]branchPlan, nBranches)
	seen := make([]bool, nBranches)
	next := 0 // next unassigned branch for singleton lines, in unit order
	assign := func(pos int, ix, table, rest string) {
		if pos < 0 || pos >= nBranches || seen[pos] {
			t.Fatalf("EXPLAIN assigned branch %d twice or out of range:\n%s", pos, strings.Join(lines, "\n"))
		}
		plans[pos] = branchPlan{table: table, index: ix, bound: rest}
		seen[pos] = true
	}
	i := 0
	for i < len(lines) {
		line := lines[i]
		switch {
		case strings.HasPrefix(line, "FUSED INDEX SCAN "):
			var ix, table string
			var k int
			if _, err := fmt.Sscanf(line, "FUSED INDEX SCAN %s ON %s BRANCHES %d", &ix, &table, &k); err != nil {
				t.Fatalf("unparseable fused header %q: %v", line, err)
			}
			for j := 0; j < k; j++ {
				i++
				var pos int
				if _, err := fmt.Sscanf(lines[i], "  BRANCH %d:", &pos); err != nil {
					t.Fatalf("unparseable branch line %q under %q: %v", lines[i], line, err)
				}
				assign(pos, ix, table, lines[i])
			}
			i++
		case strings.HasPrefix(line, "INDEX SCAN "):
			var ix, table string
			if _, err := fmt.Sscanf(line, "INDEX SCAN %s ON %s", &ix, &table); err != nil {
				t.Fatalf("unparseable plan line %q: %v", line, err)
			}
			for next < nBranches && seen[next] {
				next++
			}
			assign(next, ix, table, line)
			i++
		default:
			t.Fatalf("unexpected EXPLAIN line %q (sequential scan or unknown format)", line)
		}
	}
	for pos, ok := range seen {
		if !ok {
			t.Fatalf("EXPLAIN output covers no plan for branch %d:\n%s", pos, strings.Join(lines, "\n"))
		}
	}
	return plans
}

func TestSearchUnionBranchPlans(t *testing.T) {
	s, err := OpenMemory(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, tc := range []struct {
		kind feature.Kind
		v    float64
	}{
		{feature.Drop, -3},
		{feature.Jump, 3},
	} {
		lines := explainSearch(t, s, tc.kind, 3600, tc.v)
		want := expectedBranchPlans(tc.kind)
		got := parseBranchPlans(t, lines, len(want))
		for i := range want {
			if got[i].index != want[i].index || got[i].table != want[i].table {
				t.Errorf("kind %v branch %d picked the wrong path:\n  got  %s ON %s (%q)\n  want %s ON %s",
					tc.kind, i, got[i].index, got[i].table, got[i].bound, want[i].index, want[i].table)
				continue
			}
			if !strings.Contains(got[i].bound, "BOUNDS("+want[i].bound+"<~") {
				t.Errorf("kind %v branch %d has no range bound on %s: %q", tc.kind, i, want[i].bound, got[i].bound)
			}
		}
	}
}

// TestSearchUnionFusion pins the fusion shape itself: branches sharing a
// corner index collapse into one fused scan unit, so a drop search runs 6
// scan units for its 9 branches (dropf2's and dropf3's c1/c2 point+line
// pairs fuse), and every branch is attributed to exactly one unit.
func TestSearchUnionFusion(t *testing.T) {
	s, err := OpenMemory(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lines := explainSearch(t, s, feature.Drop, 3600, -3)
	fused, singleton, members := 0, 0, 0
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "FUSED INDEX SCAN "):
			fused++
		case strings.HasPrefix(l, "INDEX SCAN "):
			singleton++
		case strings.HasPrefix(l, "  BRANCH "):
			members++
		}
	}
	if fused != 3 || singleton != 3 {
		t.Errorf("drop search fusion shape: got %d fused units + %d singletons, want 3 + 3:\n%s",
			fused, singleton, strings.Join(lines, "\n"))
	}
	if want := len(expectedBranchPlans(feature.Drop)); singleton+members != want {
		t.Errorf("fused plan attributes %d branches, want %d:\n%s",
			singleton+members, want, strings.Join(lines, "\n"))
	}
}

// standaloneSearch is the reference the fused search UNION must match:
// each branch of searchQueries(kind) run as a standalone SELECT — which
// never fuses — and the results merged with the UNION's dedup and the
// search's ordering.
func standaloneSearch(t *testing.T, s *Store, kind feature.Kind, T int64, V float64, mode sqlmini.PlanMode) []Match {
	t.Helper()
	seen := map[Match]bool{}
	out := []Match{}
	for _, q := range searchQueries(kind) {
		rows, err := s.db.QueryMode(mode, q.sql, q.args(T, V)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows.Data {
			m := rowMatch(row)
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To.Start != out[j].To.Start {
			return out[i].To.Start < out[j].To.Start
		}
		return out[i].From.Start < out[j].From.Start
	})
	return out
}

// TestSearchMatchesStandaloneBranches checks the fused search UNION
// against its branches run one by one, over a (T, V) grid, both kinds and
// every plan mode.
func TestSearchMatchesStandaloneBranches(t *testing.T) {
	st := memStore(t, Options{Epsilon: 0.2, Window: 5000})
	defer st.Close()
	ingest(t, st, randomSeries(21, 500))
	found := 0
	for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
		for _, T := range []int64{400, 5000} {
			for _, mag := range []float64{1, 4} {
				V := mag
				if kind == feature.Drop {
					V = -mag
				}
				for _, mode := range []sqlmini.PlanMode{sqlmini.PlanAuto, sqlmini.PlanForceScan, sqlmini.PlanForceIndex} {
					got, err := st.SearchMode(kind, T, V, mode)
					if err != nil {
						t.Fatal(err)
					}
					want := standaloneSearch(t, st, kind, T, V, mode)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v T=%d V=%v mode=%v: fused search found %d matches, standalone branches %d",
							kind, T, V, mode, len(got), len(want))
					}
					found += len(got)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no grid point matched anything; the comparison was vacuous")
	}
}

// TestPlansSurviveReopen checks that the planner statistics a store
// derives at mount reproduce the ones its ingest built: after a reopen,
// every estimate of both search UNIONs over a (T, V) grid — and therefore
// every chosen access path — is unchanged.
func TestPlansSurviveReopen(t *testing.T) {
	grid := func(s *Store) []string {
		var out []string
		for _, kind := range []feature.Kind{feature.Drop, feature.Jump} {
			for _, T := range []int64{300, 1200, 3000} {
				for _, mag := range []float64{0.5, 2, 5} {
					V := mag
					if kind == feature.Drop {
						V = -mag
					}
					out = append(out, explainSearch(t, s, kind, T, V)...)
				}
			}
		}
		return out
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{Epsilon: 0.2, Window: 3000})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, st, randomSeries(33, 900))
	before := grid(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if after := grid(st); !reflect.DeepEqual(before, after) {
		t.Fatalf("plans changed across a reopen:\nbefore: %q\nafter:  %q", before, after)
	}
}
