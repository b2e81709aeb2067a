// Package obs is the engine's observability layer: a metrics registry of
// atomic counters, gauges, and fixed-bucket latency histograms; a
// per-query execution Trace produced by EXPLAIN ANALYZE; the ring-buffer
// slow log behind segdiffd's slow-request log; and an opt-in HTTP debug
// endpoint (expvar + pprof + registry snapshots).
//
// The package is stdlib-only and allocation-free on the hot path: metric
// cells are padded atomics (one cache line each, like the pager's stat
// counters), registration is the only operation that takes a lock, and
// callers cache the returned cell pointers so steady-state increments
// never touch the registry maps.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// padCell is an atomic counter padded to its own cache line so that
// concurrent writers to neighbouring metrics do not invalidate each
// other's cache lines (false sharing); see pager.padUint64 for the
// sizing rationale.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters are normally obtained from a Registry so they
// appear in snapshots.
type Counter struct{ c padCell }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.c.v.Load() }

// Gauge is a metric that can move in both directions (worker counts,
// pool occupancy). Padded like Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations whose value's bit length is i, i.e. the half-open
// range [2^(i-1), 2^i) for i > 0 and exactly 0 for i = 0. 48 buckets
// cover every nanosecond latency up to ~3.3 days.
const histBuckets = 48

// Histogram is a fixed-bucket histogram of non-negative observations
// (typically latencies in nanoseconds). Observe is lock-free; buckets
// are power-of-two-width so the index is one bit-length instruction.
type Histogram struct {
	count   padCell
	sum     padCell
	buckets [histBuckets]padCell
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].v.Add(1)
	h.count.v.Add(1)
	h.sum.v.Add(uint64(v))
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets maps
// the exclusive upper bound of each non-empty bucket to its count.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets map[uint64]uint64 `json:"buckets,omitempty"`
}

// Mean returns the mean observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Max returns the exclusive upper bound of the highest non-empty bucket
// — an upper estimate of the largest observation — or 0 when empty.
func (s HistogramSnapshot) Max() uint64 {
	var max uint64
	for ub := range s.Buckets {
		if ub > max {
			max = ub
		}
	}
	return max
}

// snapshot copies the live buckets. Concurrent Observe calls may land
// between the loads; the result is still monotonic cell by cell.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.v.Load(), Sum: h.sum.v.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].v.Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[uint64]uint64)
			}
			s.Buckets[uint64(1)<<i] = n
		}
	}
	return s
}

// Source folds externally owned cumulative counters into a snapshot —
// the pager stat counters, WAL commit/fsync counts, and zone-map skip
// counts already live as atomics in their subsystems, so the registry
// reads them at snapshot time instead of mirroring every increment. The
// callback must only report monotonically non-decreasing values.
type Source func(put func(name string, v uint64))

// Registry is a set of named metrics plus snapshot-time sources. Metric
// lookup by name locks; the returned cells are stable pointers, so hot
// paths resolve their metrics once and then increment lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	sources  []Source              // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterSource adds a snapshot-time counter source.
func (r *Registry) RegisterSource(s Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, s)
}

// Snapshot is a point-in-time copy of every metric in a Registry,
// including source-folded counters. Counter values are monotonically
// non-decreasing across successive snapshots.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter by name, 0 when absent.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Names returns the sorted counter names (for deterministic rendering).
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures every registered metric and runs the sources. The
// registry lock is held across the capture, so two metrics updated by
// the same already-finished operation are both included; individual
// cells are read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters))}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	for _, src := range r.sources {
		src(func(name string, v uint64) { s.Counters[name] = v })
	}
	return s
}
