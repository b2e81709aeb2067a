package sqlmini

import (
	"fmt"
	"math"

	"segdiff/internal/storage/heap"
	"segdiff/internal/storage/pager"
)

// Zone maps: per-heap-page min/max summaries of the numeric columns. The
// sequential and fused-sequential executors consult them to skip whole
// pages whose value ranges cannot intersect a query's column ranges — the
// paper's "SegDiff reads fewer pages" argument applied inside our own
// engine. A summary may only ever OVER-approximate the live rows on its
// page: pruning may admit too much, never too little.
//
// The summaries are never written anywhere; they are derived state of a
// mounted table. Mount (Open, CREATE TABLE, and the remount AbortBatch
// does) builds them from the heap's own pages, on the pass heap.OpenVisit
// makes anyway, so after a crash they are computed from the recovered
// pages and cover them exactly — no ordering against the WAL exists to get
// wrong. Inserts fold each new row into its page's entry. Deletes leave
// summaries stale-wide, which costs reads, not answers, until the next
// mount. Pages without an entry (summaries shorter than the heap, or the
// unset sentinel Min > Max) are always admitted.

// colZones holds one column's per-page bounds, indexed by heap PageID.
// A page with Min[p] > Max[p] is unset (no summarized rows) and is never
// pruned; fresh slots start at the extreme sentinel values so plain
// min/max folding initializes them.
type colZones struct {
	Min []float64
	Max []float64
}

// tableZones holds the zone maps of one table's numeric columns: byName
// for the read path's column ranges, byCol (schema order, nil for TEXT)
// for the write path's row fold.
type tableZones struct {
	byName map[string]*colZones
	byCol  []*colZones
}

func newTableZones(schema *tableSchema) *tableZones {
	tz := &tableZones{byName: map[string]*colZones{}, byCol: make([]*colZones, len(schema.Cols))}
	for i, col := range schema.Cols {
		if col.Type == IntType || col.Type == RealType {
			tz.byCol[i] = &colZones{}
			tz.byName[col.Name] = tz.byCol[i]
		}
	}
	return tz
}

// pageMayMatch reports whether a page could hold a row satisfying every
// column range. Missing or unset summaries admit the page.
func (tz *tableZones) pageMayMatch(page pager.PageID, ranges []colRange) bool {
	for _, r := range ranges {
		cz := tz.byName[r.col]
		if cz == nil || int(page) >= len(cz.Min) {
			continue // no summary for this column/page: cannot prune
		}
		zmin, zmax := cz.Min[page], cz.Max[page]
		if zmin > zmax {
			continue // unset sentinel
		}
		if zmax < r.lo || zmin > r.hi {
			return false // page range disjoint from query range
		}
	}
	return true
}

// note folds one row stored on page into the summaries. Callers hold the
// engine's writer lock (or are mounting the table, before it is shared).
func (tz *tableZones) note(page pager.PageID, vals []Value) {
	for i, cz := range tz.byCol {
		if cz == nil {
			continue // TEXT columns carry no zone maps
		}
		for int(page) >= len(cz.Min) { // new pages start unset
			cz.Min = append(cz.Min, math.MaxFloat64)
			cz.Max = append(cz.Max, -math.MaxFloat64)
		}
		v, _ := vals[i].AsReal()
		if v < cz.Min[page] {
			cz.Min[page] = v
		}
		if v > cz.Max[page] {
			cz.Max[page] = v
		}
	}
}

// zoneKeep builds the page-keep callback for a sequential scan serving
// the given plans (one for a plain scan, all members for a fused unit):
// a page is kept when ANY non-empty plan admits it, so pruning never
// drops a page some branch still needs. It returns nil — scan everything
// — when any branch is unprunable. Skipped pages are counted on
// db.zoneSkipped.
//
// locks: db.mu (any)
func (db *DB) zoneKeep(plans ...*scanPlan) func(pager.PageID) bool {
	matchers := make([]func(pager.PageID) bool, 0, len(plans))
	for _, p := range plans {
		if p.empty {
			continue // statically empty branches admit no pages
		}
		if len(p.ranges) == 0 {
			return nil // one unprunable branch forces a full scan
		}
		tz, ranges := db.tables[p.schema.Name].zones, p.ranges
		matchers = append(matchers, func(id pager.PageID) bool { return tz.pageMayMatch(id, ranges) })
	}
	if len(matchers) == 0 {
		return nil
	}
	return func(id pager.PageID) bool {
		for _, m := range matchers {
			if m(id) {
				return true
			}
		}
		db.zoneSkipped.Add(1)
		return false
	}
}

// ZoneSkippedPages returns the cumulative number of heap pages skipped
// by zone-map pruning across all queries (monotonic; callers diff).
func (db *DB) ZoneSkippedPages() uint64 {
	return db.zoneSkipped.Load()
}

// CheckZones verifies the invariant pruning rests on, for every table:
// each live row's numeric values lie within the summaries of the page
// holding it. The crash harness runs it after every recovery.
func (db *DB) CheckZones() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, name := range db.sortedTableNames() {
		schema, zones := db.catalog.Tables[name], db.tables[name].zones
		if err := db.scanRows(&scanPlan{schema: schema}, nil, func(rid heap.RID, vals []Value) (bool, error) {
			for i, cz := range zones.byCol {
				v, _ := vals[i].AsReal()
				if cz != nil && (int(rid.Page) >= len(cz.Min) || v < cz.Min[rid.Page] || v > cz.Max[rid.Page]) {
					return false, fmt.Errorf("sqlmini: zone map of %s.%s does not cover row %v", name, schema.Cols[i].Name, rid)
				}
			}
			return true, nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// SkipZoneRebuildForTest leaves table as a mount that skipped the zone-map
// rebuild would: the seeded bug that shows the crash harness's verifier fires.
func (db *DB) SkipZoneRebuildForTest(table string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[table].zones = newTableZones(db.catalog.Tables[table])
}
