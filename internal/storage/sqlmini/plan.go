package sqlmini

import (
	"fmt"
	"math"
	"strings"

	"segdiff/internal/storage/keyenc"
)

// PlanMode controls access path selection, standing in for the paper's
// forced choice between "sequential scan" and "execution using indexes".
type PlanMode int8

// Plan modes.
const (
	// PlanAuto uses an index when a usable range bound exists, otherwise a
	// sequential scan (mirroring MySQL's optimizer on these queries).
	PlanAuto PlanMode = iota
	// PlanForceScan always scans the heap.
	PlanForceScan
	// PlanForceIndex always goes through the best-matching index, even if
	// the whole index must be walked.
	PlanForceIndex
)

// scanPlan is the chosen access path for a SELECT or DELETE.
type scanPlan struct {
	schema *tableSchema
	index  *indexSchema // nil = sequential scan
	lo, hi []byte       // index scan bounds; nil = open end
	filter expr         // full WHERE, applied as residual filter
	// keyFilter is the AND of WHERE conjuncts that reference only indexed
	// columns. An index scan evaluates it against values decoded from the
	// B+tree key and skips the heap fetch for non-matching entries — on
	// the search workload most scanned entries fail the value predicate,
	// so this avoids the dominant per-row cost.
	keyFilter expr
	empty     bool          // statically impossible predicate (e.g. int col = 1.5)
	detail    string        // human-readable bound description for EXPLAIN
	est       *planEstimate // statistics-based estimates; nil without stats
	// ranges are the per-column numeric ranges the WHERE conjuncts imply
	// (conjunctRanges): inputs to both histogram costing and zone-map page
	// pruning on the sequential path.
	ranges []colRange
	// zonemap is the EXPLAIN annotation that a sequential scan of this
	// plan can prune pages through the table's zone maps.
	zonemap bool
	// trace, when non-nil, accumulates runtime row counters for EXPLAIN
	// ANALYZE (see analyze.go). Plans are per-execution, so attaching a
	// trace never leaks between queries; nil on every other path.
	trace *scanTrace
}

// planEstimate is the statistics-based costing of one access path,
// computed from the catalog's table statistics (stats.go) when available.
type planEstimate struct {
	rows    int64   // table row count at plan time
	scanSel float64 // est. fraction of entries/rows visited by the scan
	outSel  float64 // est. fraction of rows passing all estimable conjuncts
	cost    float64 // abstract page-oriented cost
}

func (e *planEstimate) String() string {
	return fmt.Sprintf("EST sel=%.4f rows~%d cost=%.1f",
		e.scanSel, int64(e.outSel*float64(e.rows)+0.5), e.cost)
}

func (p *scanPlan) explain() string {
	var sb strings.Builder
	if p.empty {
		sb.WriteString("EMPTY RESULT")
	} else if p.index == nil {
		fmt.Fprintf(&sb, "SEQ SCAN %s", p.schema.Name)
		if p.zonemap {
			sb.WriteString(" ZONEMAP")
		}
	} else {
		fmt.Fprintf(&sb, "INDEX SCAN %s ON %s %s", p.index.Name, p.schema.Name, p.detail)
	}
	if p.filter != nil {
		fmt.Fprintf(&sb, " FILTER %s", p.filter.String())
	}
	if p.est != nil && !p.empty {
		sb.WriteByte(' ')
		sb.WriteString(p.est.String())
	}
	return sb.String()
}

// Cost model constants. Costs are in abstract page units: a sequential
// page read costs 1, visiting one row or index entry costs cpuPerRow, a
// heap fetch through the index costs heapFetchCost (cheaper than a random
// page read because consecutive matches cluster), and an index descent
// costs descentCost. The absolute values only matter relative to each
// other; they were calibrated on the search workload so the seq/index
// crossover tracks the paper's Figures 17–24.
const (
	cpuPerRow     = 0.01
	heapFetchCost = 0.5
	descentCost   = 3.0
)

// buildPlan selects the access path for (table, where) under mode. The
// statement arguments are available, so placeholder bounds participate in
// planning (plans are built per execution). When the table's statistics
// cover the bound columns, PlanAuto costs the sequential scan against the
// best index scan and picks the cheaper one; without them (an empty table)
// it falls back to the structural heuristic (use an index whenever a range
// bound exists).
//
// locks: db.mu (any)
func buildPlan(db *DB, schema *tableSchema, where expr, args []Value, mode PlanMode) (*scanPlan, error) {
	c := db.catalog
	plan := &scanPlan{schema: schema, filter: where}
	conjs := splitConjuncts(where)
	b := &binding{args: args}

	var ts *tableStats
	var tableRows int64
	var heapPages float64
	if th := db.tables[schema.Name]; th != nil {
		ts = th.stats
		tableRows = int64(th.h.Len())
		heapPages = float64(th.pg.NumPages())
	}
	ranges, err := conjunctRanges(schema, conjs, b)
	if err != nil {
		return nil, err
	}
	plan.ranges = ranges
	plan.zonemap = len(ranges) > 0
	// outSel: product of per-column histogram selectivities over every
	// estimable conjunct (independence assumed).
	outSel := combinedSel(ts, ranges, nil)

	seqEst := func() *planEstimate {
		if ts == nil || tableRows == 0 {
			return nil
		}
		return &planEstimate{
			rows:    tableRows,
			scanSel: 1,
			outSel:  outSel,
			cost:    heapPages + cpuPerRow*float64(tableRows),
		}
	}
	if mode == PlanForceScan {
		plan.est = seqEst()
		return plan, nil
	}

	type cand struct {
		ix     *indexSchema
		lo, hi []byte
		score  int
		empty  bool
		detail string
		est    *planEstimate
	}
	mkEst := func(ix *indexSchema, m matched) *planEstimate {
		if ts == nil || tableRows == 0 {
			return nil
		}
		scanSel := boundSel(ts, m.selCols)
		if scanSel < 0 {
			return nil
		}
		// Heap fetches: entries surviving the covered-conjunct prefilter.
		fetchSel := combinedSel(ts, ranges, ix)
		idxPages := float64(0)
		if ih := db.indexes[ix.Name]; ih != nil {
			idxPages = float64(ih.pg.NumPages())
		}
		return &planEstimate{
			rows:    tableRows,
			scanSel: scanSel,
			outSel:  outSel,
			cost: descentCost + scanSel*idxPages +
				cpuPerRow*scanSel*float64(tableRows) +
				heapFetchCost*fetchSel*float64(tableRows),
		}
	}
	var best *cand
	for _, ix := range c.indexesOn(schema.Name) {
		cd, err := matchIndex(schema, ix, conjs, b)
		if err != nil {
			return nil, err
		}
		c := cand{ix: ix, lo: cd.lo, hi: cd.hi, score: cd.score, empty: cd.empty, detail: cd.detail}
		if !c.empty {
			c.est = mkEst(ix, cd)
		}
		better := best == nil || c.score > best.score
		if !better && best != nil && c.score == best.score && c.est != nil && best.est != nil {
			better = c.est.cost < best.est.cost
		}
		if better {
			best = &c
		}
	}
	switch mode {
	case PlanForceIndex:
		if best == nil {
			return nil, fmt.Errorf("sqlmini: no index on table %s to force", schema.Name)
		}
	default: // PlanAuto
		if best == nil || best.score == 0 {
			plan.est = seqEst()
			return plan, nil
		}
		// Statistics-driven crossover: with estimates on both sides, pick
		// the cheaper path instead of always preferring the index.
		if se := seqEst(); se != nil && best.est != nil && !best.empty && se.cost < best.est.cost {
			plan.est = se
			return plan, nil
		}
	}
	plan.index = best.ix
	plan.lo, plan.hi = best.lo, best.hi
	plan.empty = best.empty
	plan.detail = best.detail
	plan.est = best.est
	if !plan.empty {
		plan.keyFilter = coveredFilter(conjs, best.ix)
	}
	return plan, nil
}

// colRange is the numeric range a set of conjuncts pins one column to.
type colRange struct {
	col    string
	lo, hi float64 // ±Inf = open end
}

// conjunctRanges extracts, per referenced column, the intersected numeric
// range implied by the simple comparison conjuncts (col OP const). Only
// estimable conjuncts contribute; anything else (the line-query slope
// expression, TEXT comparisons) is ignored.
func conjunctRanges(schema *tableSchema, conjs []expr, b *binding) ([]colRange, error) {
	byCol := map[string]int{}
	var out []colRange
	for _, cj := range conjs {
		bx, ok := cj.(binExpr)
		if !ok {
			continue
		}
		var col, op string
		var rhs expr
		switch {
		case isColConst(bx.l, bx.r):
			col, op, rhs = bx.l.(columnRef).name, bx.op, bx.r
		case isColConst(bx.r, bx.l):
			col, op, rhs = bx.r.(columnRef).name, flipOp(bx.op), bx.l
		default:
			continue
		}
		switch op {
		case "=", "<", "<=", ">", ">=":
		default:
			continue
		}
		v, err := evalExpr(rhs, b)
		if err != nil {
			return nil, err
		}
		f, err := v.AsReal()
		if err != nil {
			continue // TEXT comparison: not estimable
		}
		i, ok := byCol[col]
		if !ok {
			i = len(out)
			byCol[col] = i
			out = append(out, colRange{col: col, lo: math.Inf(-1), hi: math.Inf(1)})
		}
		switch op {
		case "=":
			out[i].lo = math.Max(out[i].lo, f)
			out[i].hi = math.Min(out[i].hi, f)
		case "<", "<=":
			out[i].hi = math.Min(out[i].hi, f)
		default:
			out[i].lo = math.Max(out[i].lo, f)
		}
	}
	_ = schema
	return out, nil
}

func isColConst(l, r expr) bool {
	_, isCol := l.(columnRef)
	return isCol && isConst(r)
}

// combinedSel multiplies the histogram selectivities of the given column
// ranges. When onlyIx is non-nil, only columns covered by that index
// contribute (the heap-fetch prefilter estimate); columns without
// statistics contribute factor 1 (conservative).
func combinedSel(ts *tableStats, ranges []colRange, onlyIx *indexSchema) float64 {
	sel := 1.0
	for _, r := range ranges {
		if onlyIx != nil {
			covered := false
			for _, c := range onlyIx.Cols {
				if c == r.col {
					covered = true
					break
				}
			}
			if !covered {
				continue
			}
		}
		if s := ts.colSel(r.col, r.lo, r.hi); s >= 0 {
			sel *= s
		}
	}
	return sel
}

// boundSel estimates the fraction of index entries inside the scan bounds
// from the histograms of the bound columns, or -1 when the decisive
// column has no statistics.
func boundSel(ts *tableStats, specs []colRange) float64 {
	if len(specs) == 0 {
		return 1 // whole-index scan
	}
	sel := 1.0
	known := false
	for _, sp := range specs {
		s := ts.colSel(sp.col, sp.lo, sp.hi)
		if s < 0 {
			continue
		}
		known = true
		sel *= s
	}
	if !known {
		return -1
	}
	return sel
}

// coveredFilter returns the AND of the conjuncts whose column references
// are all covered by ix, or nil if none are.
func coveredFilter(conjs []expr, ix *indexSchema) expr {
	covered := make(map[string]bool, len(ix.Cols))
	for _, c := range ix.Cols {
		covered[c] = true
	}
	var kf expr
	for _, cj := range conjs {
		ok := true
		walkExpr(cj, func(e expr) {
			if c, isCol := e.(columnRef); isCol && !covered[c.name] {
				ok = false
			}
		})
		if !ok {
			continue
		}
		if kf == nil {
			kf = cj
		} else {
			kf = binExpr{op: "AND", l: kf, r: cj}
		}
	}
	return kf
}

// rangeBound is one side of a column range.
type rangeBound struct {
	v         Value
	inclusive bool
	set       bool
}

type matched struct {
	lo, hi []byte
	score  int
	empty  bool
	detail string
	// selCols are the numeric ranges the scan bounds pin index columns to,
	// used for histogram-based selectivity estimation of the scan itself.
	selCols []colRange
}

// noteSelCol appends a selectivity range for one bound column when the
// bound value is numeric (TEXT bounds are not estimable).
func (m *matched) noteSelCol(col string, lo, hi Value, loSet, hiSet bool) {
	r := colRange{col: col, lo: math.Inf(-1), hi: math.Inf(1)}
	if loSet {
		if f, err := lo.AsReal(); err == nil {
			r.lo = f
		} else {
			return
		}
	}
	if hiSet {
		if f, err := hi.AsReal(); err == nil {
			r.hi = f
		} else {
			return
		}
	}
	m.selCols = append(m.selCols, r)
}

// matchIndex derives scan bounds for one index: a run of equality
// conjuncts over the index's column prefix, optionally terminated by range
// conjuncts on the next column.
func matchIndex(schema *tableSchema, ix *indexSchema, conjs []expr, b *binding) (matched, error) {
	var m matched
	var eqVals []keyenc.Value
	var details []string

	for pos, colName := range ix.Cols {
		ci := schema.colIndex(colName)
		if ci < 0 {
			return m, fmt.Errorf("sqlmini: index %s references unknown column %s", ix.Name, colName)
		}
		colType := schema.Cols[ci].Type

		var eq rangeBound
		var lo, hi rangeBound
		for _, cj := range conjs {
			col, op, rhs, ok := asColumnCompare(cj, colName)
			if !ok {
				continue
			}
			_ = col
			v, err := evalExpr(rhs, b)
			if err != nil {
				return m, err
			}
			switch op {
			case "=":
				if !eq.set {
					eq = rangeBound{v: v, inclusive: true, set: true}
				}
			case ">", ">=":
				nb := rangeBound{v: v, inclusive: op == ">=", set: true}
				if tighterLo(nb, lo) {
					lo = nb
				}
			case "<", "<=":
				nb := rangeBound{v: v, inclusive: op == "<=", set: true}
				if tighterHi(nb, hi) {
					hi = nb
				}
			}
		}

		if eq.set {
			kv, exact, err := encodeBoundValue(colType, eq.v)
			if err != nil {
				return m, err
			}
			if !exact {
				// e.g. int_col = 1.5: statically empty.
				return matched{empty: true, score: math.MaxInt32, detail: "impossible equality"}, nil
			}
			eqVals = append(eqVals, kv)
			m.score += 2
			m.noteSelCol(colName, eq.v, eq.v, true, true)
			details = append(details, fmt.Sprintf("%s=%s", colName, eq.v))
			continue
		}

		// Range bounds terminate the prefix.
		prefix := keyenc.Encode(eqVals...)
		m.lo, m.hi = prefix, nil
		if len(eqVals) > 0 {
			m.hi = upperBound(prefix)
		}
		if lo.set {
			kv, err := encodeLoBound(colType, lo)
			if err != nil {
				return m, err
			}
			m.lo = append(append([]byte{}, prefix...), kv...)
			m.score++
			details = append(details, fmt.Sprintf("%s>~%s", colName, lo.v))
		}
		if hi.set {
			kv, err := encodeHiBound(colType, hi)
			if err != nil {
				return m, err
			}
			m.hi = append(append([]byte{}, prefix...), kv...)
			m.score++
			details = append(details, fmt.Sprintf("%s<~%s", colName, hi.v))
		}
		if lo.set || hi.set {
			m.noteSelCol(colName, lo.v, hi.v, lo.set, hi.set)
		}
		_ = pos
		m.detail = "BOUNDS(" + strings.Join(details, ", ") + ")"
		return m, nil
	}

	// Every index column had an equality.
	prefix := keyenc.Encode(eqVals...)
	m.lo = prefix
	m.hi = upperBound(prefix)
	if len(eqVals) == 0 {
		m.lo, m.hi = nil, nil
	}
	m.detail = "BOUNDS(" + strings.Join(details, ", ") + ")"
	return m, nil
}

// asColumnCompare matches conjuncts of the form <col> OP <const-expr> or
// <const-expr> OP <col> (flipping the operator), for the given column.
func asColumnCompare(e expr, col string) (string, string, expr, bool) {
	bx, ok := e.(binExpr)
	if !ok {
		return "", "", nil, false
	}
	switch bx.op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", "", nil, false
	}
	if cr, ok := bx.l.(columnRef); ok && cr.name == col && isConst(bx.r) {
		return col, bx.op, bx.r, true
	}
	if cr, ok := bx.r.(columnRef); ok && cr.name == col && isConst(bx.l) {
		return col, flipOp(bx.op), bx.l, true
	}
	return "", "", nil, false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// tighterLo reports whether a is a tighter lower bound than b.
func tighterLo(a, b rangeBound) bool {
	if !b.set {
		return true
	}
	c, err := Compare(a.v, b.v)
	if err != nil {
		return false
	}
	return c > 0 || (c == 0 && !a.inclusive && b.inclusive)
}

func tighterHi(a, b rangeBound) bool {
	if !b.set {
		return true
	}
	c, err := Compare(a.v, b.v)
	if err != nil {
		return false
	}
	return c < 0 || (c == 0 && !a.inclusive && b.inclusive)
}

// encodeBoundValue encodes v for a column of type t. exact is false when
// the value cannot be represented exactly in the column's type (an INT
// column with a fractional bound).
func encodeBoundValue(t ColType, v Value) (keyenc.Value, bool, error) {
	switch t {
	case IntType:
		switch v.T {
		case IntType:
			return keyenc.IntValue(v.I), true, nil
		case RealType:
			if v.R == math.Trunc(v.R) && !math.IsInf(v.R, 0) {
				return keyenc.IntValue(int64(v.R)), true, nil
			}
			return keyenc.Value{}, false, nil
		}
	case RealType:
		f, err := v.AsReal()
		if err != nil {
			return keyenc.Value{}, false, err
		}
		return keyenc.FloatValue(f), true, nil
	case TextType:
		if v.T == TextType {
			return keyenc.StringValue(v.S), true, nil
		}
	}
	return keyenc.Value{}, false, fmt.Errorf("sqlmini: cannot bound %v column with %v value", t, v.T)
}

// encodeLoBound returns the encoded scan start for "col > / >= bound".
func encodeLoBound(t ColType, b rangeBound) ([]byte, error) {
	kv, exact, err := encodeBoundValue(t, adjustedLo(t, b))
	if err != nil {
		return nil, err
	}
	enc := keyenc.Encode(kv)
	if exact && !b.inclusive && !(t == IntType && b.v.T == RealType) {
		// col > v: skip all keys whose element equals v.
		return upperBound(enc), nil
	}
	return enc, nil
}

// adjustedLo rounds fractional bounds on INT columns up: col >= 1.5 means
// col >= 2.
func adjustedLo(t ColType, b rangeBound) Value {
	if t == IntType && b.v.T == RealType && b.v.R != math.Trunc(b.v.R) {
		return Int(int64(math.Ceil(b.v.R)))
	}
	return b.v
}

// encodeHiBound returns the encoded scan end for "col < / <= bound"
// (inclusive scan semantics: keys > the returned bound are excluded).
func encodeHiBound(t ColType, b rangeBound) ([]byte, error) {
	v := b.v
	inclusive := b.inclusive
	if t == IntType && v.T == RealType && v.R != math.Trunc(v.R) {
		// col <= 1.5 and col < 1.5 both mean col <= 1.
		v = Int(int64(math.Floor(v.R)))
		inclusive = true
	}
	kv, _, err := encodeBoundValue(t, v)
	if err != nil {
		return nil, err
	}
	enc := keyenc.Encode(kv)
	if inclusive {
		// Include all keys whose element equals v (they carry suffixes).
		return upperBound(enc), nil
	}
	// col < v: the encoded prefix itself is less than every key with
	// element v, so it serves as an inclusive upper bound excluding them.
	return enc, nil
}

// upperBound returns a key that is >= every key having enc as a prefix and
// < every key with a greater prefix.
func upperBound(enc []byte) []byte {
	out := make([]byte, len(enc)+1)
	copy(out, enc)
	out[len(enc)] = 0xFF
	return out
}
