package sqlmini

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"segdiff/internal/storage/btree"
	"segdiff/internal/storage/heap"
	"segdiff/internal/storage/keyenc"
)

// Fused shared-scan union execution. The paper's drop/jump search is a
// UNION of point and line queries (§4.4), and most branches target the
// same (table, corner-index) with overlapping dt ≤ T prefix ranges. The
// fusion pass groups such branches into one scan unit: a single B+tree
// descent over the merged key range (or one heap pass for sequential
// plans) that evaluates every branch's predicate per visited entry, with
// per-branch row attribution. Because the shared scan visits keys in the
// same ascending order an independent scan of each branch would, and each
// branch only sees keys inside its own bounds, every branch's row list —
// and therefore the merged UNION result — is byte-identical to
// branch-at-a-time execution.

// scanUnit is one executable group of UNION branches. A solo unit wraps a
// branch the fusion pass cannot handle (aggregates, ORDER BY or LIMIT)
// and runs through the ordinary SELECT path; a fused
// unit shares one scan across all member branches.
type scanUnit struct {
	solo   bool
	schema *tableSchema // nil for solo units
	index  *indexSchema // nil = fused sequential scan
	idxs   []int        // absolute branch positions within the UNION
	stmts  []selectStmt
	plans  []*scanPlan // nil for solo units
}

// buildUnionUnits plans every branch of a UNION and groups fusable
// branches that chose the same (table, access path) into shared scan
// units. Branch order is preserved inside each unit, and units are
// ordered by their first member, so EXPLAIN output and execution results
// stay deterministic.
//
// locks: db.mu (shared)
func (db *DB) buildUnionUnits(st unionStmt, args []Value, mode PlanMode) ([]*scanUnit, error) {
	var units []*scanUnit
	byKey := map[string]*scanUnit{}
	for i, b := range st.branches {
		solo := len(b.orderBy) > 0 || b.limit >= 0
		if !solo {
			for _, e := range b.exprs {
				if hasAggregate(e) {
					solo = true
					break
				}
			}
		}
		if solo {
			units = append(units, &scanUnit{solo: true, idxs: []int{i}, stmts: []selectStmt{b}})
			continue
		}
		schema, ok := db.catalog.Tables[b.table]
		if !ok {
			return nil, fmt.Errorf("sqlmini: no such table %s", b.table)
		}
		if b.where != nil {
			if err := validateExpr(b.where, schema, false); err != nil {
				return nil, err
			}
		}
		for _, e := range b.exprs {
			if err := validateExpr(e, schema, true); err != nil {
				return nil, err
			}
		}
		plan, err := buildPlan(db, schema, b.where, args, mode)
		if err != nil {
			return nil, err
		}
		key := b.table + "\x00"
		if plan.index != nil {
			key += plan.index.Name
		}
		u := byKey[key]
		if u == nil {
			u = &scanUnit{schema: schema, index: plan.index}
			byKey[key] = u
			units = append(units, u)
		}
		u.idxs = append(u.idxs, i)
		u.stmts = append(u.stmts, b)
		u.plans = append(u.plans, plan)
	}
	return units, nil
}

// execFusedUnit runs one fused scan unit, storing each member branch's
// result into branchRows at its absolute position. Distinct units touch
// disjoint branchRows slots, so units may run concurrently.
//
// locks: db.mu (shared)
func (db *DB) execFusedUnit(u *scanUnit, args []Value, branchRows []*Rows) error {
	schema := u.schema
	n := len(u.idxs)
	outs := make([]*Rows, n)
	for j, bi := range u.idxs {
		r := &Rows{}
		if u.stmts[j].star {
			for _, c := range schema.Cols {
				r.Columns = append(r.Columns, c.Name)
			}
		} else {
			for _, e := range u.stmts[j].exprs {
				r.Columns = append(r.Columns, e.String())
			}
		}
		outs[j] = r
		branchRows[bi] = r
	}

	th := db.tables[schema.Name]
	rowBuf := make([]Value, len(schema.Cols))

	// Compile each branch's residual predicate, key prefilter, and
	// projection once; the closures are specialized to the bound args.
	filters := make([]func([]Value) (bool, error), n)
	keyFilters := make([]func([]Value) (bool, error), n)
	projs := make([][]valFn, n)
	for j := range u.idxs {
		p := u.plans[j]
		filters[j] = compilePred(p.filter, schema, args)
		keyFilters[j] = compilePred(p.keyFilter, schema, args)
		if st := u.stmts[j]; !st.star {
			fns := make([]valFn, len(st.exprs))
			for k, e := range st.exprs {
				fns[k] = compileVal(e, schema, args)
			}
			projs[j] = fns
		}
	}

	// emit projects the shared row through branch j's SELECT list.
	emit := func(j int, vals []Value) error {
		if t := u.plans[j].trace; t != nil {
			t.rowsReturned++
		}
		var proj []Value
		if u.stmts[j].star {
			proj = append([]Value(nil), vals...)
		} else {
			proj = make([]Value, len(projs[j]))
			for k, f := range projs[j] {
				v, err := f(vals)
				if err != nil {
					return err
				}
				proj[k] = v
			}
		}
		outs[j].Data = append(outs[j].Data, proj)
		return nil
	}

	if u.index == nil {
		// Fused sequential scan: one heap pass, every branch's predicate
		// per row. Zone-map pruning keeps a page when ANY branch's ranges
		// could intersect it (zoneKeep ORs the member plans), so the shared
		// scan visits exactly the pages the branch-at-a-time scans would.
		return th.h.ScanPages(db.zoneKeep(u.plans...), func(_ heap.RID, rec []byte) (bool, error) {
			vals, err := decodeRowInto(schema, rec, rowBuf)
			if err != nil {
				return false, err
			}
			for j := range u.idxs {
				if u.plans[j].empty {
					continue
				}
				if t := u.plans[j].trace; t != nil {
					t.rowsExamined++ // every decoded row, per live branch
				}
				if f := filters[j]; f != nil {
					ok, err := f(vals)
					if err != nil {
						return false, err
					}
					if !ok {
						continue
					}
				}
				if err := emit(j, vals); err != nil {
					return false, err
				}
			}
			return true, nil
		})
	}

	// Fused index scan. Merge the branches' [lo, hi] key ranges into
	// disjoint intervals so every index entry is descended to and visited
	// exactly once, regardless of how the branch ranges overlap.
	ih := db.indexes[u.index.Name]
	type iv struct{ lo, hi []byte }
	var ivs []iv
	for j := range u.idxs {
		if u.plans[j].empty {
			continue
		}
		ivs = append(ivs, iv{u.plans[j].lo, u.plans[j].hi})
	}
	if len(ivs) == 0 {
		return nil
	}
	// nil lo sorts first (unbounded start), nil hi means unbounded end.
	sort.Slice(ivs, func(a, c int) bool {
		if ivs[a].lo == nil || ivs[c].lo == nil {
			return ivs[a].lo == nil && ivs[c].lo != nil
		}
		return bytes.Compare(ivs[a].lo, ivs[c].lo) < 0
	})
	merged := ivs[:1]
	for _, x := range ivs[1:] {
		last := &merged[len(merged)-1]
		if last.hi == nil || x.lo == nil || bytes.Compare(x.lo, last.hi) <= 0 {
			if x.hi == nil {
				last.hi = nil
			} else if last.hi != nil && bytes.Compare(x.hi, last.hi) > 0 {
				last.hi = x.hi
			}
		} else {
			merged = append(merged, x)
		}
	}

	// Covered-conjunct prefilter state, shared across branches (every
	// member chose the same index, so the key layout is common).
	keyIdx := make([]int, len(u.index.Cols))
	for i, cn := range u.index.Cols {
		keyIdx[i] = schema.colIndex(cn)
	}
	krow := make([]Value, len(schema.Cols))
	var kvals []keyenc.Value
	inRange := func(key []byte, p *scanPlan) bool {
		if p.lo != nil && bytes.Compare(key, p.lo) < 0 {
			return false
		}
		if p.hi != nil && bytes.Compare(key, p.hi) > 0 {
			return false
		}
		return true
	}

	var it btree.Iterator
	pass := make([]bool, n)
	for _, m := range merged {
		for ih.tree.SeekInto(&it, m.lo); it.Valid(); it.Next() {
			key := it.Key()
			if m.hi != nil && bytes.Compare(key, m.hi) > 0 {
				break
			}
			decoded := false
			any := false
			for j := range u.idxs {
				p := u.plans[j]
				pass[j] = false
				if p.empty || !inRange(key, p) {
					continue
				}
				if p.trace != nil {
					// A dedicated scan of this branch would visit exactly the
					// entries inside its own bounds.
					p.trace.rowsExamined++
				}
				if kf := keyFilters[j]; kf != nil {
					if !decoded {
						var err error
						kvals, err = keyenc.DecodeInto(key, kvals[:0])
						if err != nil {
							return err
						}
						if len(kvals) != len(keyIdx)+1 { // + trailing RID
							return fmt.Errorf("sqlmini: index %s key has %d parts, want %d",
								u.index.Name, len(kvals), len(keyIdx)+1)
						}
						for i, ci := range keyIdx {
							switch kvals[i].Kind {
							case keyenc.Int:
								krow[ci] = Int(kvals[i].I)
							case keyenc.Float:
								krow[ci] = Real(kvals[i].F)
							case keyenc.String:
								krow[ci] = Text(kvals[i].S)
							}
						}
						decoded = true
					}
					ok, err := kf(krow)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				pass[j] = true
				any = true
			}
			if !any {
				continue
			}
			// At least one branch survived the key prefilter: fetch and
			// decode the heap row once, then finish each surviving branch.
			rid := intToRID(int64(binary.LittleEndian.Uint64(it.Value())))
			rec, err := th.h.View(rid)
			if err != nil {
				return err
			}
			vals, err := decodeRowInto(schema, rec, rowBuf)
			if err != nil {
				return err
			}
			for j := range u.idxs {
				if !pass[j] {
					continue
				}
				if f := filters[j]; f != nil {
					ok, err := f(vals)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				if err := emit(j, vals); err != nil {
					return err
				}
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// explainHeader renders the one-line summary of a fused scan unit.
func (u *scanUnit) explainHeader() string {
	var sb strings.Builder
	if u.index == nil {
		fmt.Fprintf(&sb, "FUSED SEQ SCAN %s BRANCHES %d", u.schema.Name, len(u.idxs))
	} else {
		fmt.Fprintf(&sb, "FUSED INDEX SCAN %s ON %s BRANCHES %d", u.index.Name, u.schema.Name, len(u.idxs))
	}
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
	if sel >= 0 {
		fmt.Fprintf(&sb, " EST sel=%.4f rows~%d", sel, int64(rows+0.5))
	}
	return sb.String()
}
