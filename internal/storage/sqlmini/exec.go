package sqlmini

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"segdiff/internal/storage/btree"
	"segdiff/internal/storage/heap"
	"segdiff/internal/storage/keyenc"
	"segdiff/internal/storage/pager"
)

// Rows is a materialized query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// ridToInt packs a heap RID into an int64 for index key suffixes.
func ridToInt(rid heap.RID) int64 {
	return int64(rid.Page)<<16 | int64(rid.Slot)
}

func intToRID(v int64) heap.RID {
	return heap.RID{Page: pager.PageID(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// packRID writes the 8-byte index value for a RID.
func packRID(dst []byte, rid heap.RID) {
	binary.LittleEndian.PutUint64(dst, uint64(ridToInt(rid)))
}

// indexKey builds the unique B+tree key for a row in index ix: the encoded
// index columns followed by the RID.
func indexKey(schema *tableSchema, ix *indexSchema, vals []Value, rid heap.RID) ([]byte, error) {
	parts := make([]keyenc.Value, 0, len(ix.Cols)+1)
	for _, cn := range ix.Cols {
		ci := schema.colIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("sqlmini: index %s references unknown column %s", ix.Name, cn)
		}
		v := vals[ci]
		switch schema.Cols[ci].Type {
		case IntType:
			parts = append(parts, keyenc.IntValue(v.I))
		case RealType:
			parts = append(parts, keyenc.FloatValue(v.R))
		case TextType:
			parts = append(parts, keyenc.StringValue(v.S))
		}
	}
	parts = append(parts, keyenc.IntValue(ridToInt(rid)))
	return keyenc.Encode(parts...), nil
}

// scanRows drives the chosen access path, invoking fn with each row that
// passes the residual filter. fn returning false stops the scan. The vals
// slice passed to fn is reused between calls: callbacks that retain rows
// past their return must copy.
//
// locks: db.mu (any)
func (db *DB) scanRows(p *scanPlan, args []Value, fn func(rid heap.RID, vals []Value) (bool, error)) error {
	if p.empty {
		return nil
	}
	th := db.tables[p.schema.Name]
	b := &binding{schema: p.schema, args: args}

	rowBuf := make([]Value, len(p.schema.Cols))
	tr := p.trace
	visit := func(rid heap.RID, rec []byte) (bool, error) {
		// A sequential scan examines every row on the kept pages; an index
		// scan's examined count is taken at the B+tree entry level below.
		if tr != nil && p.index == nil {
			tr.rowsExamined++
		}
		vals, err := decodeRowInto(p.schema, rec, rowBuf)
		if err != nil {
			return false, err
		}
		if p.filter != nil {
			b.row = vals
			ok, err := evalExpr(p.filter, b)
			if err != nil {
				return false, err
			}
			if !ok.IsTrue() {
				return true, nil
			}
		}
		if tr != nil {
			tr.rowsReturned++
		}
		return fn(rid, vals)
	}

	if p.index == nil {
		// Zone-map pruning: skip heap pages whose per-page column bounds
		// cannot intersect the plan's ranges. Advisory only — the residual
		// filter above still decides row membership, so pruned and unpruned
		// scans return identical rows.
		return th.h.ScanPages(db.zoneKeep(p), visit)
	}
	ih := db.indexes[p.index.Name]

	// For covered conjuncts, filter on values decoded from the index key
	// and only fetch the heap row for survivors. kvals and krow are reused
	// across entries to keep the scan allocation-free.
	var (
		kb     *binding
		keyIdx []int
		kvals  []keyenc.Value
		krow   []Value
	)
	if p.keyFilter != nil {
		keyIdx = make([]int, len(p.index.Cols))
		for i, cn := range p.index.Cols {
			keyIdx[i] = p.schema.colIndex(cn)
		}
		krow = make([]Value, len(p.schema.Cols))
		kb = &binding{schema: p.schema, args: args}
	}

	return ih.tree.ScanRange(p.lo, p.hi, func(key, val []byte) (bool, error) {
		if tr != nil {
			tr.rowsExamined++ // every entry inside the scan bounds
		}
		if kb != nil {
			var err error
			kvals, err = keyenc.DecodeInto(key, kvals[:0])
			if err != nil {
				return false, err
			}
			if len(kvals) != len(keyIdx)+1 { // + trailing RID
				return false, fmt.Errorf("sqlmini: index %s key has %d parts, want %d", p.index.Name, len(kvals), len(keyIdx)+1)
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
			kb.row = krow
			ok, err := evalExpr(p.keyFilter, kb)
			if err != nil {
				return false, err
			}
			if !ok.IsTrue() {
				return true, nil
			}
		}
		rid := intToRID(int64(binary.LittleEndian.Uint64(val)))
		rec, err := th.h.View(rid)
		if err != nil {
			return false, err
		}
		return visit(rid, rec)
	})
}

// execSelect runs a SELECT.
//
// locks: db.mu (shared)
func (db *DB) execSelect(st selectStmt, args []Value, mode PlanMode) (*Rows, error) {
	plan, aggMode, err := db.planSelect(st, args, mode)
	if err != nil {
		return nil, err
	}
	return db.execSelectOn(st, plan, aggMode, args)
}

// planSelect validates a SELECT against the catalog and chooses its
// access path. aggMode reports a whole-table aggregate SELECT. Split
// from execSelect so EXPLAIN ANALYZE can attach a trace to the plan
// before execution.
//
// locks: db.mu (shared)
func (db *DB) planSelect(st selectStmt, args []Value, mode PlanMode) (plan *scanPlan, aggMode bool, err error) {
	schema, ok := db.catalog.Tables[st.table]
	if !ok {
		return nil, false, fmt.Errorf("sqlmini: no such table %s", st.table)
	}
	if st.where != nil {
		if err := validateExpr(st.where, schema, false); err != nil {
			return nil, false, err
		}
	}
	for _, k := range st.orderBy {
		if schema.colIndex(k.col) < 0 {
			return nil, false, fmt.Errorf("sqlmini: ORDER BY references unknown column %s", k.col)
		}
	}
	for _, e := range st.exprs {
		if err := validateExpr(e, schema, true); err != nil {
			return nil, false, err
		}
		if hasAggregate(e) {
			aggMode = true
		}
	}
	plan, err = buildPlan(db, schema, st.where, args, mode)
	if err != nil {
		return nil, false, err
	}
	return plan, aggMode, nil
}

// execSelectOn runs a planned SELECT.
//
// locks: db.mu (shared)
func (db *DB) execSelectOn(st selectStmt, plan *scanPlan, aggMode bool, args []Value) (*Rows, error) {
	schema := plan.schema
	if aggMode {
		return db.execAggregate(st, plan, args)
	}

	out := &Rows{}
	if st.star {
		for _, c := range schema.Cols {
			out.Columns = append(out.Columns, c.Name)
		}
	} else {
		for _, e := range st.exprs {
			out.Columns = append(out.Columns, e.String())
		}
	}

	type sortedRow struct {
		proj []Value
		keys []Value
	}
	var collected []sortedRow
	b := &binding{schema: schema, args: args}
	needSort := len(st.orderBy) > 0

	err := db.scanRows(plan, args, func(_ heap.RID, vals []Value) (bool, error) {
		if !needSort && st.limit >= 0 && int64(len(out.Data)) >= st.limit {
			return false, nil
		}
		var proj []Value
		if st.star {
			proj = append([]Value(nil), vals...)
		} else {
			b.row = vals
			proj = make([]Value, len(st.exprs))
			for i, e := range st.exprs {
				v, err := evalExpr(e, b)
				if err != nil {
					return false, err
				}
				proj[i] = v
			}
		}
		if !needSort {
			out.Data = append(out.Data, proj)
			return st.limit < 0 || int64(len(out.Data)) < st.limit, nil
		}
		keys := make([]Value, len(st.orderBy))
		for i, k := range st.orderBy {
			keys[i] = vals[schema.colIndex(k.col)]
		}
		collected = append(collected, sortedRow{proj: proj, keys: keys})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if needSort {
		var sortErr error
		sort.SliceStable(collected, func(i, j int) bool {
			for k, key := range st.orderBy {
				c, err := Compare(collected[i].keys[k], collected[j].keys[k])
				if err != nil {
					sortErr = err
					return false
				}
				if c != 0 {
					if key.desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for _, r := range collected {
			if st.limit >= 0 && int64(len(out.Data)) >= st.limit {
				break
			}
			out.Data = append(out.Data, r.proj)
		}
	}
	return out, nil
}

// execAggregate runs a whole-table aggregate SELECT (no GROUP BY).
func (db *DB) execAggregate(st selectStmt, plan *scanPlan, args []Value) (*Rows, error) {
	aggs := make([]aggregate, len(st.exprs))
	for i, e := range st.exprs {
		a, ok := e.(aggregate)
		if !ok {
			return nil, fmt.Errorf("sqlmini: cannot mix aggregates and plain expressions")
		}
		aggs[i] = a
	}
	if len(st.orderBy) > 0 {
		return nil, fmt.Errorf("sqlmini: ORDER BY is not supported with aggregates")
	}

	type acc struct {
		n     int64
		sum   float64
		first bool
		ext   Value // running MIN/MAX
	}
	accs := make([]acc, len(aggs))
	for i := range accs {
		accs[i].first = true
	}
	b := &binding{schema: plan.schema, args: args}

	err := db.scanRows(plan, args, func(_ heap.RID, vals []Value) (bool, error) {
		b.row = vals
		for i, a := range aggs {
			accs[i].n++
			if a.x == nil {
				continue // COUNT(*)
			}
			v, err := evalExpr(a.x, b)
			if err != nil {
				return false, err
			}
			switch a.fn {
			case "COUNT":
			case "SUM", "AVG":
				f, err := v.AsReal()
				if err != nil {
					return false, err
				}
				accs[i].sum += f
			case "MIN", "MAX":
				if accs[i].first {
					accs[i].ext = v
					accs[i].first = false
					break
				}
				c, err := Compare(v, accs[i].ext)
				if err != nil {
					return false, err
				}
				if (a.fn == "MIN" && c < 0) || (a.fn == "MAX" && c > 0) {
					accs[i].ext = v
				}
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}

	out := &Rows{}
	row := make([]Value, len(aggs))
	for i, a := range aggs {
		out.Columns = append(out.Columns, a.String())
		switch a.fn {
		case "COUNT":
			row[i] = Int(accs[i].n)
		case "SUM":
			row[i] = Real(accs[i].sum)
		case "AVG":
			if accs[i].n == 0 {
				row[i] = Real(0)
			} else {
				row[i] = Real(accs[i].sum / float64(accs[i].n))
			}
		case "MIN", "MAX":
			if accs[i].first {
				row[i] = Int(0) // empty input
			} else {
				row[i] = accs[i].ext
			}
		}
	}
	out.Data = append(out.Data, row)
	return out, nil
}

// validateInsert checks every VALUES row of st against the schema.
func validateInsert(schema *tableSchema, st insertStmt) error {
	for _, row := range st.rows {
		if len(row) != len(schema.Cols) {
			return fmt.Errorf("sqlmini: table %s has %d columns, INSERT supplies %d", st.table, len(schema.Cols), len(row))
		}
		for _, e := range row {
			if err := validateExpr(e, schema, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalInsertRow evaluates one validated VALUES group into a typed row.
func evalInsertRow(schema *tableSchema, exprs []expr, b *binding) ([]Value, error) {
	vals := make([]Value, len(exprs))
	for i, e := range exprs {
		v, err := evalExpr(e, b)
		if err != nil {
			return nil, err
		}
		c, err := coerce(v, schema.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: column %s: %w", schema.Cols[i].Name, err)
		}
		vals[i] = c
	}
	return vals, nil
}

// execInsert runs an INSERT and returns the number of rows inserted.
//
// locks: db.mu
func (db *DB) execInsert(st insertStmt, args []Value) (int, error) {
	schema, ok := db.catalog.Tables[st.table]
	if !ok {
		return 0, fmt.Errorf("sqlmini: no such table %s", st.table)
	}
	if err := validateInsert(schema, st); err != nil {
		return 0, err
	}
	b := &binding{args: args}
	if len(st.rows) == 1 {
		vals, err := evalInsertRow(schema, st.rows[0], b)
		if err != nil {
			return 0, err
		}
		return 1, db.insertRow(schema, vals)
	}
	rows := make([][]Value, len(st.rows))
	for i, rx := range st.rows {
		vals, err := evalInsertRow(schema, rx, b)
		if err != nil {
			return 0, err
		}
		rows[i] = vals
	}
	return len(rows), db.insertRows(schema, rows)
}

// insertRow writes a typed row into the heap and all indexes.
//
// locks: db.mu
func (db *DB) insertRow(schema *tableSchema, vals []Value) error {
	rec, err := encodeRow(schema, vals)
	if err != nil {
		return err
	}
	th := db.tables[schema.Name]
	rid, err := th.h.Insert(rec)
	if err != nil {
		return err
	}
	for _, ix := range db.catalog.indexesOn(schema.Name) {
		key, err := indexKey(schema, ix, vals, rid)
		if err != nil {
			return err
		}
		var ridBytes [8]byte
		binary.LittleEndian.PutUint64(ridBytes[:], uint64(ridToInt(rid)))
		if err := db.indexes[ix.Name].tree.Insert(key, ridBytes[:]); err != nil {
			return fmt.Errorf("sqlmini: index %s: %w", ix.Name, err)
		}
	}
	oneRow := [1][]Value{vals}
	oneRID := [1]heap.RID{rid}
	db.noteInserted(schema, oneRow[:], oneRID[:])
	return nil
}

// noteInserted folds freshly written rows into the planner statistics and
// the table's zone maps. rids are the rows' heap locations.
//
// locks: db.mu
func (db *DB) noteInserted(schema *tableSchema, rows [][]Value, rids []heap.RID) {
	th := db.tables[schema.Name]
	for i, vals := range rows {
		th.zones.note(rids[i].Page, vals)
		th.stats.note(vals)
	}
}

// insertRows writes many typed rows at once: one heap batch under a single
// tail-page pin, then each secondary index applied as a sorted run on its
// own worker (Options.WriteWorkers). Sorting the per-index entries lets the
// B+tree take its right-edge fast path (btree.InsertRun), and distinct
// indexes live in distinct files with distinct pagers, so the workers share
// no mutable state. Row order in the heap — and therefore the table file's
// bytes — is identical to per-row insertion.
//
// locks: db.mu
func (db *DB) insertRows(schema *tableSchema, rows [][]Value) error {
	if len(rows) == 0 {
		return nil
	}
	recs := make([][]byte, len(rows))
	for i, vals := range rows {
		rec, err := encodeRow(schema, vals)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	th := db.tables[schema.Name]
	rids, err := th.h.InsertBatch(recs)
	if err != nil {
		return err
	}
	// The rows are in the heap; account for them now. If an index apply
	// below fails, the caller's AbortBatch rolls both back.
	db.noteInserted(schema, rows, rids)
	idxs := db.catalog.indexesOn(schema.Name)
	if len(idxs) == 0 {
		return nil
	}

	applyIndex := func(ix *indexSchema) error {
		entries := make([]btree.Entry, len(rows))
		ridBytes := make([]byte, 8*len(rows))
		for i, vals := range rows {
			key, err := indexKey(schema, ix, vals, rids[i])
			if err != nil {
				return err
			}
			val := ridBytes[8*i : 8*i+8]
			packRID(val, rids[i])
			entries[i] = btree.Entry{Key: key, Val: val}
		}
		// Keys are unique (RID suffix), so a plain byte sort yields the
		// strictly ascending run InsertRun requires.
		sort.Slice(entries, func(a, b int) bool {
			return bytes.Compare(entries[a].Key, entries[b].Key) < 0
		})
		if err := db.indexes[ix.Name].tree.InsertRun(entries); err != nil {
			return fmt.Errorf("sqlmini: index %s: %w", ix.Name, err)
		}
		return nil
	}

	workers := db.opts.WriteWorkers
	if workers > len(idxs) {
		workers = len(idxs)
	}
	if workers <= 1 {
		for _, ix := range idxs {
			if err := applyIndex(ix); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(idxs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = applyIndex(idxs[i])
			}
		}()
	}
	for i := range idxs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// execDelete runs a DELETE and returns the number of removed rows.
//
// locks: db.mu
func (db *DB) execDelete(st deleteStmt, args []Value, mode PlanMode) (int, error) {
	schema, ok := db.catalog.Tables[st.table]
	if !ok {
		return 0, fmt.Errorf("sqlmini: no such table %s", st.table)
	}
	if st.where != nil {
		if err := validateExpr(st.where, schema, false); err != nil {
			return 0, err
		}
	}
	plan, err := buildPlan(db, schema, st.where, args, mode)
	if err != nil {
		return 0, err
	}
	type victim struct {
		rid  heap.RID
		vals []Value
	}
	var victims []victim
	err = db.scanRows(plan, args, func(rid heap.RID, vals []Value) (bool, error) {
		// scanRows reuses vals; victims outlive the scan.
		victims = append(victims, victim{rid: rid, vals: append([]Value(nil), vals...)})
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	th := db.tables[schema.Name]
	for _, v := range victims {
		if err := th.h.Delete(v.rid); err != nil {
			return 0, err
		}
		for _, ix := range db.catalog.indexesOn(schema.Name) {
			key, err := indexKey(schema, ix, v.vals, v.rid)
			if err != nil {
				return 0, err
			}
			if err := db.indexes[ix.Name].tree.Delete(key); err != nil {
				return 0, fmt.Errorf("sqlmini: index %s: %w", ix.Name, err)
			}
		}
	}
	return len(victims), nil
}

// execUnion runs the UNION's scan units and merges the results with set
// semantics (duplicate rows removed), as the paper's search requires:
// "the union of the results of two point queries and one line query".
//
// The fusion pass (fuse.go) groups branches that target the same
// (table, index) into shared scan units, so a search that used to run ten
// index descents runs six or fewer. Units are independent read-only
// scans writing to disjoint branch slots, so they are evaluated on a
// bounded worker pool (Options.UnionWorkers goroutines; the caller
// already holds db.mu shared). The merge happens afterwards in branch
// order, so the result is byte-identical to sequential branch-at-a-time
// evaluation.
//
// locks: db.mu (shared)
func (db *DB) execUnion(ctx context.Context, st unionStmt, args []Value, mode PlanMode) (*Rows, error) {
	branchRows := make([]*Rows, len(st.branches))
	units, err := db.buildUnionUnits(st, args, mode)
	if err != nil {
		return nil, err
	}

	// Cancellation is checked once per scan unit: each unit is one
	// bounded index descent or heap pass, so an expired request context
	// stops the union within a unit of work instead of finishing the
	// whole statement.
	runUnit := func(u *scanUnit) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if u.solo {
			// Placeholder indices are assigned left to right across the
			// whole statement, so every branch evaluates against the full
			// args.
			rows, err := db.execSelect(u.stmts[0], args, mode)
			if err != nil {
				return err
			}
			branchRows[u.idxs[0]] = rows
			return nil
		}
		return db.execFusedUnit(u, args, branchRows)
	}

	workers := db.opts.UnionWorkers
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for _, u := range units {
			if err := runUnit(u); err != nil {
				return nil, err
			}
		}
	} else {
		errs := make([]error, len(units))
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					errs[i] = runUnit(units[i])
				}
			}()
		}
		for i := range units {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return mergeUnion(branchRows)
}

// mergeUnion concatenates branch results in branch order, removing
// duplicates. The dedup key is an encoded byte string built in a reused
// buffer; the map lookup on a []byte-to-string conversion does not
// allocate, so only the first occurrence of each distinct row pays for a
// key allocation (the old implementation built a fresh string key per
// row via fmt-style formatting).
func mergeUnion(branchRows []*Rows) (*Rows, error) {
	out := &Rows{}
	total := 0
	for _, r := range branchRows {
		total += r.Len()
	}
	seen := make(map[string]struct{}, total)
	var keyBuf []byte
	for i, rows := range branchRows {
		if i == 0 {
			out.Columns = rows.Columns
		} else if len(rows.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("sqlmini: UNION branches produce %d and %d columns",
				len(out.Columns), len(rows.Columns))
		}
		for _, row := range rows.Data {
			keyBuf = appendRowKey(keyBuf[:0], row)
			if _, dup := seen[string(keyBuf)]; dup {
				continue
			}
			seen[string(keyBuf)] = struct{}{}
			out.Data = append(out.Data, row)
		}
	}
	return out, nil
}

// appendRowKey appends a row's deduplication key: a type tag per value
// followed by its fixed-width binary encoding (length-prefixed bytes for
// TEXT). Values compare equal under UNION semantics iff their keys match.
func appendRowKey(dst []byte, row []Value) []byte {
	var b [8]byte
	for _, v := range row {
		dst = append(dst, byte(v.T))
		switch v.T {
		case IntType:
			binary.LittleEndian.PutUint64(b[:], uint64(v.I))
			dst = append(dst, b[:]...)
		case RealType:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.R))
			dst = append(dst, b[:]...)
		default:
			binary.LittleEndian.PutUint32(b[:4], uint32(len(v.S)))
			dst = append(dst, b[:4]...)
			dst = append(dst, v.S...)
		}
	}
	return dst
}
