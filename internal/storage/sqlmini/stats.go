package sqlmini

import "math"

// Planner statistics. Each table carries, per numeric column, min/max
// bounds plus a shallow equi-width histogram (the row count is the heap's
// own live count). They are maintained incrementally on the write path and
// feed the cost model that chooses between a sequential scan and an index
// range scan per query — the crossover of the paper's Figures 17–24,
// derived from data instead of a hardcoded heuristic.
//
// They are saved with the catalog at checkpoint and Close only, never on
// the commit path; AbortBatch rolls them back to the in-memory copy taken
// at the last commit (DB.committedStats), not from disk. The numbers are
// advisory: deletes leave them alone (bounds and histograms
// over-approximate), and after a crash the saved copy trails the replayed
// data by up to one checkpoint interval. The planner tolerates that — a
// bad estimate costs performance, never correctness.

// histBuckets is the histogram resolution. 32 buckets distinguish the
// selective dt ≤ T prefix ranges of the search workload from unselective
// ones while keeping the catalog entry small.
const histBuckets = 32

// colHist is an equi-width histogram over [Lo, Hi]. When a value lands
// outside the current range the range widens and existing counts are
// redistributed proportionally — approximate, but adequate for costing.
type colHist struct {
	Lo    float64            `json:"lo"`
	Hi    float64            `json:"hi"`
	N     [histBuckets]int64 `json:"n"`
	Total int64              `json:"total"`
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
	Min  float64  `json:"min"`
	Max  float64  `json:"max"`
	Hist *colHist `json:"hist,omitempty"`
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

// tableStats aggregates the statistics of one table.
type tableStats struct {
	Cols map[string]*colStats `json:"cols,omitempty"`
}

// cloneStats deep-copies every table's statistics.
func cloneStats(stats map[string]*tableStats) map[string]*tableStats {
	out := make(map[string]*tableStats, len(stats))
	for table, ts := range stats {
		c := &tableStats{Cols: make(map[string]*colStats, len(ts.Cols))}
		for name, cs := range ts.Cols {
			col := *cs
			if cs.Hist != nil {
				h := *cs.Hist
				col.Hist = &h
			}
			c.Cols[name] = &col
		}
		out[table] = c
	}
	return out
}

// statsFor returns (creating if needed) the statistics entry for a table.
func (c *catalog) statsFor(table string) *tableStats {
	if c.Stats == nil {
		c.Stats = map[string]*tableStats{}
	}
	ts := c.Stats[table]
	if ts == nil {
		ts = &tableStats{Cols: map[string]*colStats{}}
		c.Stats[table] = ts
	}
	return ts
}

// noteInsert folds freshly inserted rows into the table's statistics.
// Callers hold the engine's writer lock (the catalog is guarded by it).
func (c *catalog) noteInsert(schema *tableSchema, rows [][]Value) {
	ts := c.statsFor(schema.Name)
	for _, vals := range rows {
		for i, col := range schema.Cols {
			if col.Type == TextType {
				continue // TEXT columns carry no numeric statistics
			}
			cs := ts.Cols[col.Name]
			if cs == nil {
				cs = &colStats{}
				ts.Cols[col.Name] = cs
			}
			v, _ := vals[i].AsReal()
			cs.add(v)
		}
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
