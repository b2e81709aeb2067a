package obs

import (
	"fmt"
	"regexp"
	"strings"
	"time"
)

// wallRE matches the volatile wall-time field of a node annotation.
var wallRE = regexp.MustCompile(`wall=[^ )]+`)

// NormalizeWall replaces the volatile wall-time field of an EXPLAIN
// ANALYZE line with "wall=X" so golden tests can compare output exactly.
func NormalizeWall(line string) string { return wallRE.ReplaceAllString(line, "wall=X") }

// Trace is the runtime record of one executed query, produced by
// EXPLAIN ANALYZE: the plan tree annotated with what actually happened.
// Page counters are measured as buffer-pool deltas around each plan
// node, so they are exact only when the query runs without concurrent
// queries on the same store; row counters are exact always.
type Trace struct {
	SQL    string       `json:"sql"`
	Mode   string       `json:"mode"`
	WallNS int64        `json:"wall_ns"`
	Rows   int          `json:"rows"`
	Nodes  []*TraceNode `json:"nodes"`
}

// TraceNode annotates one plan node. A fused scan unit is one node with
// per-branch children: rows are attributed to the branch that returned
// them, while page I/O is attributed to the shared scan (the unit node),
// since one heap fetch serves every branch.
type TraceNode struct {
	// Plan is the planner's description of the node, identical to the
	// corresponding EXPLAIN line (without branch indentation).
	Plan string `json:"plan"`
	// Branch is the UNION branch index this node computes, -1 for nodes
	// that are not branches (plain statements, fused unit headers).
	Branch int `json:"branch"`
	// EstRows is the planner's output-row estimate, -1 when the planner
	// had no statistics for the node.
	EstRows      int64        `json:"est_rows"`
	RowsExamined int64        `json:"rows_examined"`
	RowsReturned int64        `json:"rows_returned"`
	PagesRead    uint64       `json:"pages_read"`
	PagesHit     uint64       `json:"pages_hit"`
	ZoneSkipped  uint64       `json:"zone_skipped_pages"`
	WallNS       int64        `json:"wall_ns"`
	Children     []*TraceNode `json:"children,omitempty"`
}

// annot renders the runtime annotation appended to a node's plan text.
// Tests normalize the volatile wall field with NormalizeWall.
func (n *TraceNode) annot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(actual rows=%d examined=%d pages_read=%d pages_hit=%d zone_skipped=%d wall=%s",
		n.RowsReturned, n.RowsExamined, n.PagesRead, n.PagesHit, n.ZoneSkipped,
		time.Duration(n.WallNS))
	if n.EstRows >= 0 {
		fmt.Fprintf(&b, " est_rows=%d", n.EstRows)
	}
	b.WriteString(")")
	return b.String()
}

// Lines renders the trace as EXPLAIN ANALYZE output: one line per node,
// children indented under their unit with their branch index, matching
// the plain EXPLAIN layout.
func (t *Trace) Lines() []string {
	var out []string
	for _, n := range t.Nodes {
		out = append(out, n.render(""))
		for _, c := range n.Children {
			out = append(out, c.render("  "))
		}
	}
	return out
}

func (n *TraceNode) render(indent string) string {
	prefix := indent
	if indent != "" && n.Branch >= 0 {
		prefix = fmt.Sprintf("%sBRANCH %d: ", indent, n.Branch)
	}
	return prefix + n.Plan + " " + n.annot()
}

// RowsExaminedTotal sums rows examined over the whole tree.
func (t *Trace) RowsExaminedTotal() int64 {
	return t.sum(func(n *TraceNode) int64 { return n.RowsExamined })
}

// RowsReturnedTotal sums rows returned over the whole tree (before
// UNION deduplication).
func (t *Trace) RowsReturnedTotal() int64 {
	return t.sum(func(n *TraceNode) int64 { return n.RowsReturned })
}

// PagesReadTotal sums page reads over the whole tree.
func (t *Trace) PagesReadTotal() uint64 {
	var total uint64
	t.walk(func(n *TraceNode) { total += n.PagesRead })
	return total
}

func (t *Trace) sum(f func(*TraceNode) int64) int64 {
	var total int64
	t.walk(func(n *TraceNode) { total += f(n) })
	return total
}

func (t *Trace) walk(f func(*TraceNode)) {
	var rec func(*TraceNode)
	rec = func(n *TraceNode) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, n := range t.Nodes {
		rec(n)
	}
}
