package sqlmini

import "math"

// Planner statistics. Each table carries, per numeric column, min/max
// bounds plus a shallow equi-width histogram (the row count is the heap's
// own live count). They feed the cost model that chooses between a
// sequential scan and an index range scan per query — the crossover of the
// paper's Figures 17–24, derived from data instead of a hardcoded
// heuristic.
//
// Like zone maps (zones.go), statistics are derived state of a mounted
// table and are never written anywhere: mount (Open, CREATE TABLE and the
// AbortBatch remount) folds every live row into them on the heap.OpenVisit
// pass, and inserts keep folding new rows in. Rows are folded in heap
// order either way, so an insert-only table mounts to exactly the
// statistics its inserts built. Deletes leave them alone (bounds and
// histograms over-approximate) until the next mount. The planner tolerates
// that — a bad estimate costs performance, never correctness.

// histBuckets is the histogram resolution. 32 buckets distinguish the
// selective dt ≤ T prefix ranges of the search workload from unselective
// ones while keeping each column's entry small.
const histBuckets = 32

// colHist is an equi-width histogram over [Lo, Hi]. When a value lands
// outside the current range the range widens and existing counts are
// redistributed proportionally — approximate, but adequate for costing.
type colHist struct {
	Lo    float64
	Hi    float64
	N     [histBuckets]int64
	Total int64
}

// add records one value, widening the bucket range if needed. The range
// widens geometrically (50% slack on the growing side) so a monotone
// stream — the common case for dt columns fed in arrival order — triggers
// O(log n) rescales instead of one per value, keeping the cumulative
// redistribution error negligible.
func (h *colHist) add(v float64) {
	if h.Total == 0 {
		h.Lo, h.Hi = v, v
	} else if v < h.Lo || v > h.Hi {
		lo, hi := math.Min(v, h.Lo), math.Max(v, h.Hi)
		pad := (hi - lo) / 2
		if v < h.Lo {
			lo -= pad
		}
		if v > h.Hi {
			hi += pad
		}
		h.rescale(lo, hi)
	}
	h.N[h.bucket(v)]++
	h.Total++
}

// bucket maps v (within [Lo, Hi]) to its bucket index.
func (h *colHist) bucket(v float64) int {
	if h.Hi <= h.Lo {
		return 0
	}
	b := int((v - h.Lo) / (h.Hi - h.Lo) * histBuckets)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// rescale widens the range to [lo, hi], redistributing each old bucket's
// count across the new buckets it overlaps, proportionally by width.
func (h *colHist) rescale(lo, hi float64) {
	if h.Hi <= h.Lo {
		// Degenerate single-value histogram: all mass sits at Lo.
		var out [histBuckets]int64
		n := *h
		h.Lo, h.Hi = lo, hi
		out[h.bucket(n.Lo)] = n.Total
		h.N = out
		return
	}
	var out [histBuckets]int64
	oldW := (h.Hi - h.Lo) / histBuckets
	newW := (hi - lo) / histBuckets
	for i, c := range h.N {
		if c == 0 {
			continue
		}
		bLo, bHi := h.Lo+float64(i)*oldW, h.Lo+float64(i+1)*oldW
		// Distribute c across the new buckets overlapping [bLo, bHi],
		// proportionally to the actual overlap width; the integer
		// remainder goes to the widest overlap so counts are conserved.
		jLo := int((bLo - lo) / newW)
		jHi := int((bHi - lo) / newW)
		if jHi >= histBuckets {
			jHi = histBuckets - 1
		}
		if jLo < 0 {
			jLo = 0
		}
		rem := c
		best, bestOv := jLo, -1.0
		for j := jLo; j <= jHi; j++ {
			jlo, jhi := lo+float64(j)*newW, lo+float64(j+1)*newW
			ov := math.Min(bHi, jhi) - math.Max(bLo, jlo)
			if ov < 0 {
				ov = 0
			}
			share := int64(float64(c) * ov / oldW)
			if share > rem {
				share = rem
			}
			out[j] += share
			rem -= share
			if ov > bestOv {
				best, bestOv = j, ov
			}
		}
		out[best] += rem
	}
	h.Lo, h.Hi = lo, hi
	h.N = out
}

// selLE estimates the fraction of values ≤ v, interpolating linearly
// within the boundary bucket.
func (h *colHist) selLE(v float64) float64 {
	if h.Total == 0 {
		return 1
	}
	if v < h.Lo {
		return 0
	}
	if v >= h.Hi {
		return 1
	}
	w := (h.Hi - h.Lo) / histBuckets
	b := h.bucket(v)
	var below int64
	for i := 0; i < b; i++ {
		below += h.N[i]
	}
	frac := (v - (h.Lo + float64(b)*w)) / w
	est := float64(below) + frac*float64(h.N[b])
	return est / float64(h.Total)
}

// selRange estimates the fraction of values in [lo, hi]; math.Inf bounds
// mean unbounded on that side.
func (h *colHist) selRange(lo, hi float64) float64 {
	sLo, sHi := 0.0, 1.0
	if !math.IsInf(lo, -1) {
		sLo = h.selLE(lo)
	}
	if !math.IsInf(hi, 1) {
		sHi = h.selLE(hi)
	}
	s := sHi - sLo
	if s < 0 {
		return 0
	}
	return s
}

// colStats are the per-column statistics of one numeric column.
type colStats struct {
	Min  float64
	Max  float64
	Hist *colHist
}

func (cs *colStats) add(v float64) {
	if cs.Hist == nil {
		cs.Hist = &colHist{}
		cs.Min, cs.Max = v, v
	}
	if v < cs.Min {
		cs.Min = v
	}
	if v > cs.Max {
		cs.Max = v
	}
	cs.Hist.add(v)
}

// tableStats holds the statistics of one table's numeric columns: Cols
// by name for the planner, byCol (schema order, nil for TEXT) for the
// row fold.
type tableStats struct {
	Cols  map[string]*colStats
	byCol []*colStats
}

func newTableStats(schema *tableSchema) *tableStats {
	ts := &tableStats{Cols: map[string]*colStats{}, byCol: make([]*colStats, len(schema.Cols))}
	for i, col := range schema.Cols {
		if col.Type != TextType {
			ts.byCol[i] = &colStats{}
			ts.Cols[col.Name] = ts.byCol[i]
		}
	}
	return ts
}

// note folds one row into the statistics. Callers hold the engine's
// writer lock (or are mounting the table, before it is shared).
func (ts *tableStats) note(vals []Value) {
	for i, cs := range ts.byCol {
		if cs == nil {
			continue // TEXT columns carry no numeric statistics
		}
		v, _ := vals[i].AsReal()
		cs.add(v)
	}
}

// colSel estimates the selectivity of "col within [lo, hi]" from the
// column's histogram, or -1 when no estimate is possible.
func (ts *tableStats) colSel(col string, lo, hi float64) float64 {
	if ts == nil {
		return -1
	}
	cs := ts.Cols[col]
	if cs == nil || cs.Hist == nil || cs.Hist.Total == 0 {
		return -1
	}
	return cs.Hist.selRange(lo, hi)
}
