package sqlmini

import (
	"fmt"
	"time"

	"segdiff/internal/obs"
	"segdiff/internal/storage/pager"
)

// EXPLAIN ANALYZE: execute the statement and annotate every plan node
// with runtime counters. Row counts are exact — they come from per-plan
// scanTrace counters incremented on the scan path. Page counters
// (reads, hits) and zone-map skips are deltas over the
// node's buffer pools taken around its execution; they are exact when
// the query runs alone and approximate when concurrent queries touch
// the same table, which is the same attribution model pager.Stats
// itself offers. To keep the deltas meaningful, ANALYZE always runs
// UNION scan units sequentially on the calling goroutine (plain
// execution may fan units across Options.UnionWorkers); unit results
// and the merged rows are byte-identical either way because units
// write disjoint branch slots and the merge happens in branch order.

// scanTrace accumulates one plan's runtime row counters. Fields are
// plain ints on purpose: plans are built per execution, ANALYZE runs
// scan units sequentially, and heap.ScanPages invokes its callbacks
// only on the scanning goroutine, so no trace is ever shared between
// goroutines.
type scanTrace struct {
	rowsExamined int64 // rows or index entries inspected before filtering
	rowsReturned int64 // rows that passed all filters and reached the consumer
}

// estRowsOf is the planner's output-row estimate for a plan, rendered
// with the same rounding as planEstimate.String; -1 without statistics.
func estRowsOf(p *scanPlan) int64 {
	if p == nil || p.est == nil || p.empty {
		return -1
	}
	return int64(p.est.outSel*float64(p.est.rows) + 0.5)
}

// unitEstRows mirrors explainHeader's estimate for a fused unit: the
// summed output-row estimates of the member plans, -1 when no member
// had statistics.
func unitEstRows(u *scanUnit) int64 {
	var rows float64
	sel := -1.0
	for _, p := range u.plans {
		if p.est == nil || p.empty {
			continue
		}
		rows += p.est.outSel * float64(p.est.rows)
		if p.est.scanSel > sel {
			sel = p.est.scanSel
		}
	}
	if sel < 0 {
		return -1
	}
	return int64(rows + 0.5)
}

// nodeDelta snapshots the counters one trace node's execution is
// attributed against: the node's table (and index) buffer pools plus
// the zone-map skip counter.
type nodeDelta struct {
	db       *DB
	pagers   []*pager.Pager
	base     pager.Stats
	zoneBase uint64
}

// beginDelta opens an attribution window over the pools a plan on
// (schema, ix) can touch. ix may be nil for sequential plans.
//
// locks: db.mu (any)
func (db *DB) beginDelta(schema *tableSchema, ix *indexSchema) *nodeDelta {
	d := &nodeDelta{db: db}
	if th := db.tables[schema.Name]; th != nil {
		d.pagers = append(d.pagers, th.pg)
	}
	if ix != nil {
		if ih := db.indexes[ix.Name]; ih != nil {
			d.pagers = append(d.pagers, ih.pg)
		}
	}
	d.base = d.sum()
	d.zoneBase = db.zoneSkipped.Load()
	return d
}

func (d *nodeDelta) sum() pager.Stats {
	var s pager.Stats
	for _, pg := range d.pagers {
		ps := pg.Stats()
		s.Hits += ps.Hits
		s.Misses += ps.Misses
		s.Reads += ps.Reads
		s.Writes += ps.Writes
		s.Evictions += ps.Evictions
	}
	return s
}

// finish stamps the window's counter deltas onto the node and returns it.
func (d *nodeDelta) finish(n *obs.TraceNode) *obs.TraceNode {
	cur := d.sum()
	n.PagesRead = cur.Reads - d.base.Reads
	n.PagesHit = cur.Hits - d.base.Hits
	n.ZoneSkipped = d.db.zoneSkipped.Load() - d.zoneBase
	return n
}

// modeName is the trace label of a plan mode.
func modeName(m PlanMode) string {
	switch m {
	case PlanForceScan:
		return "scan"
	case PlanForceIndex:
		return "index"
	default:
		return "auto"
	}
}

// analyzeExec executes s.inner with per-node tracing and returns the
// merged result rows plus the trace (SQL field left to the caller).
//
// locks: db.mu (shared)
func (db *DB) analyzeExec(s explainStmt, args []Value, mode PlanMode) (*Rows, *obs.Trace, error) {
	start := time.Now()
	var rows *Rows
	var nodes []*obs.TraceNode
	switch inner := s.inner.(type) {
	case selectStmt:
		var err error
		rows, nodes, err = db.analyzeSelect(inner, -1, args, mode)
		if err != nil {
			return nil, nil, err
		}
	case unionStmt:
		units, err := db.buildUnionUnits(inner, args, mode)
		if err != nil {
			return nil, nil, err
		}
		branchRows := make([]*Rows, len(inner.branches))
		for _, u := range units {
			if u.solo {
				r, ns, err := db.analyzeSelect(u.stmts[0], u.idxs[0], args, mode)
				if err != nil {
					return nil, nil, err
				}
				branchRows[u.idxs[0]] = r
				nodes = append(nodes, ns...)
				continue
			}
			node, err := db.analyzeFusedUnit(u, args, branchRows)
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, node)
		}
		rows, err = mergeUnion(branchRows)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("sqlmini: EXPLAIN ANALYZE supports only SELECT")
	}
	tr := &obs.Trace{
		Mode:   modeName(mode),
		WallNS: time.Since(start).Nanoseconds(),
		Rows:   rows.Len(),
		Nodes:  nodes,
	}
	return rows, tr, nil
}

// analyzeSelect plans and executes one traced SELECT. branch is the
// statement's absolute UNION branch position, -1 for a standalone
// statement.
//
// locks: db.mu (shared)
func (db *DB) analyzeSelect(st selectStmt, branch int, args []Value, mode PlanMode) (*Rows, []*obs.TraceNode, error) {
	plan, aggMode, err := db.planSelect(st, args, mode)
	if err != nil {
		return nil, nil, err
	}
	tr := &scanTrace{}
	plan.trace = tr
	d := db.beginDelta(plan.schema, plan.index)
	start := time.Now()
	rows, err := db.execSelectOn(st, plan, aggMode, args)
	if err != nil {
		return nil, nil, err
	}
	node := d.finish(&obs.TraceNode{
		Plan:         plan.explain(),
		Branch:       branch,
		EstRows:      estRowsOf(plan),
		RowsExamined: tr.rowsExamined,
		RowsReturned: tr.rowsReturned,
		WallNS:       time.Since(start).Nanoseconds(),
	})
	return rows, []*obs.TraceNode{node}, nil
}

// analyzeFusedUnit runs one fused scan unit with per-branch traces and
// returns its annotated node with one child per member branch. Page
// I/O and zone skips live on the unit node — the branches share a
// single scan, so per-branch page attribution would double count.
//
// locks: db.mu (shared)
func (db *DB) analyzeFusedUnit(u *scanUnit, args []Value, branchRows []*Rows) (*obs.TraceNode, error) {
	traces := make([]*scanTrace, len(u.plans))
	for j, p := range u.plans {
		traces[j] = &scanTrace{}
		p.trace = traces[j]
	}
	d := db.beginDelta(u.schema, u.index)
	start := time.Now()
	if err := db.execFusedUnit(u, args, branchRows); err != nil {
		return nil, err
	}
	wall := time.Since(start).Nanoseconds()

	if len(u.idxs) == 1 {
		// EXPLAIN renders a single-branch unit as the branch plan itself;
		// ANALYZE mirrors that shape.
		return d.finish(&obs.TraceNode{
			Plan:         u.plans[0].explain(),
			Branch:       u.idxs[0],
			EstRows:      estRowsOf(u.plans[0]),
			RowsExamined: traces[0].rowsExamined,
			RowsReturned: traces[0].rowsReturned,
			WallNS:       wall,
		}), nil
	}

	unit := &obs.TraceNode{
		Plan:    u.explainHeader(),
		Branch:  -1,
		EstRows: unitEstRows(u),
		WallNS:  wall,
	}
	for j := range u.idxs {
		child := &obs.TraceNode{
			Plan:         u.plans[j].explain(),
			Branch:       u.idxs[j],
			EstRows:      estRowsOf(u.plans[j]),
			RowsExamined: traces[j].rowsExamined,
			RowsReturned: traces[j].rowsReturned,
		}
		unit.RowsExamined += child.RowsExamined
		unit.RowsReturned += child.RowsReturned
		unit.Children = append(unit.Children, child)
	}
	return d.finish(unit), nil
}

// explainAnalyzeRows executes the statement and renders the annotated
// plan tree, one line per node, as the EXPLAIN ANALYZE result set.
//
// locks: db.mu (shared)
func (db *DB) explainAnalyzeRows(s explainStmt, args []Value, mode PlanMode) (*Rows, error) {
	_, tr, err := db.analyzeExec(s, args, mode)
	if err != nil {
		return nil, err
	}
	out := &Rows{Columns: []string{"plan"}}
	for _, line := range tr.Lines() {
		out.Data = append(out.Data, []Value{Text(line)})
	}
	return out, nil
}

// ExplainAnalyze executes a SELECT or UNION under mode and returns its
// runtime trace: every plan node annotated with actual row counts,
// page I/O deltas, zone-map skips, and wall time, alongside the
// planner's row estimate. The statement's results are computed but not
// returned; use the SQL form ("EXPLAIN ANALYZE SELECT ...") through
// Query to get the rendered plan as rows instead.
func (db *DB) ExplainAnalyze(mode PlanMode, sql string, args ...Value) (*obs.Trace, error) {
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	var s explainStmt
	switch x := st.(type) {
	case explainStmt:
		switch x.inner.(type) {
		case selectStmt, unionStmt:
			s = explainStmt{inner: x.inner, analyze: true}
		default:
			return nil, fmt.Errorf("sqlmini: ExplainAnalyze supports only SELECT")
		}
	case selectStmt, unionStmt:
		s = explainStmt{inner: st, analyze: true}
	default:
		return nil, fmt.Errorf("sqlmini: ExplainAnalyze supports only SELECT")
	}
	if n := countParams(s); n != len(args) {
		return nil, fmt.Errorf("sqlmini: statement has %d placeholders, got %d args", n, len(args))
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("sqlmini: database is closed")
	}
	start := time.Now()
	_, tr, err := db.analyzeExec(s, args, mode)
	if err != nil {
		return nil, err
	}
	tr.SQL = sql
	tr.WallNS = time.Since(start).Nanoseconds()
	return tr, nil
}
