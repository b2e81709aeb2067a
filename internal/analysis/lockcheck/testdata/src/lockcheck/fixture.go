// Package lockcheck is the analyzer fixture: a guarded counter exercising
// the annotation grammar, unguarded access, self-deadlock and the two
// annotation-hygiene diagnostics.
package lockcheck

import "sync"

// Counter is the well-formed guarded type.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Inc acquires the mutex itself: fine.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// bump relies on the caller's lock and says so.
//
// locks: c.mu
func (c *Counter) bump() { c.n++ }

// Add holds the lock across a call to the annotated helper: fine.
func (c *Counter) Add(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < k; i++ {
		c.bump()
	}
}

// Peek reads the guarded field with no lock and no annotation.
func (c *Counter) Peek() int {
	return c.n // want `Peek accesses Counter.n \(guarded by Counter.mu\) without acquiring`
}

// Double re-enters the self-locking Inc while already holding the mutex.
func (c *Counter) Double() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Inc() // want `self-deadlock: Double calls c.Inc, which acquires c's mutex, while already holding it`
	c.Inc() // want `self-deadlock: Double calls c.Inc, which acquires c's mutex, while already holding it`
}

// Reset unlocks before re-entering: fine.
func (c *Counter) Reset() {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
	c.Inc()
}

// phantom's annotation names a receiver that has no mutex field.
//
// locks: q.mu
func phantom(q int) int { return q } // want `locks: annotation "locks: q.mu" does not name a mutex field`

// Sloppy declares a guard that is not a mutex.
type Sloppy struct {
	state int
	v     int // want `field Sloppy.v is declared guarded by "state", which is not a mutex field of Sloppy` // guarded by state
}

// Engine mirrors sqlmini.DB's planner-statistics state: a guarded
// reference-typed catalog map plus a guarded dirty flag, written by the
// ingest path and read by a parameter-annotated planner function.
type Engine struct {
	mu    sync.RWMutex
	stats map[string]int // guarded by mu
	// dirty marks stats changed since the last save.
	dirty bool // guarded by mu
}

// note writes both guarded fields under the caller's exclusive lock.
//
// locks: e.mu
func (e *Engine) note(k string) {
	e.stats[k]++
	e.dirty = true
}

// plan is a free function reading guarded state through an annotated
// parameter, the shape of buildPlan(db, ...).
//
// locks: e.mu (any)
func plan(e *Engine, k string) int {
	return e.stats[k]
}

// flush resets the dirty flag under its own lock: fine.
func (e *Engine) flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dirty = false
}

// estimate reads the stats map with no lock and no annotation.
func (e *Engine) estimate(k string) int {
	return e.stats[k] // want `estimate accesses Engine.stats \(guarded by Engine.mu\) without acquiring`
}

// bucket is one lock stripe of a sharded pool, with its own mutex
// guarding its own frame map and clock state.
type bucket struct {
	mu     sync.RWMutex
	frames map[uint32]int // guarded by mu
	hand   int            // guarded by mu
}

// pool is the sharded owner; the slice itself is immutable after
// construction, so only the per-bucket state is guarded.
type pool struct {
	buckets []bucket
}

// advance is a per-stripe helper relying on the caller's latch, the shape
// of the pager's makeRoom/insertFrame/removeFrame helpers on one mutex.
//
// locks: b.mu
func (b *bucket) advance() int {
	b.hand = (b.hand + 1) % len(b.frames)
	return b.hand
}

// peek reads stripe state under either latch mode.
//
// locks: b.mu (any)
func peek(b *bucket, id uint32) int {
	return b.frames[id]
}

// lookup takes its own shared latch on one stripe: fine.
func (p *pool) lookup(id uint32) int {
	b := &p.buckets[id%uint32(len(p.buckets))]
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.frames[id]
}

// sweep is an ordered all-stripe latch acquired
// through an index expression, covering every stripe's guarded fields.
func (p *pool) sweep() int {
	n := 0
	for i := range p.buckets {
		p.buckets[i].mu.Lock()
	}
	for i := range p.buckets {
		n += len(p.buckets[i].frames)
	}
	for i := range p.buckets {
		p.buckets[i].mu.Unlock()
	}
	return n
}

// steal touches a stripe's clock hand with no latch and no annotation.
func (p *pool) steal(i int) int {
	return p.buckets[i].hand // want `steal accesses bucket.hand \(guarded by bucket.mu\) without acquiring`
}
