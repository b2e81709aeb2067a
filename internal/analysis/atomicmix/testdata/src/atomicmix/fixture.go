// Fixture for the atomicmix analyzer: counters mixing sync/atomic and
// plain access, in the shape of cache-line-padded per-stripe statistics.
package atomicmix

import "sync/atomic"

// pad is a plain word, padded to a cache line, always accessed through
// the sync/atomic functions.
type pad struct {
	v uint64
	_ [56]byte
}

type counters struct {
	hits   pad
	misses pad
}

type shard struct {
	stats counters
	gen   uint32 // plain counter, never atomic: plain access is fine
}

type pool struct {
	nFrames atomic.Int64
	closed  atomic.Bool
}

// good: every touch of the atomic cells goes through sync/atomic, and
// atomic value types are used via methods.
func good(s *shard, p *pool) uint64 {
	atomic.AddUint64(&s.stats.hits.v, 1)
	n := atomic.LoadUint64(&s.stats.misses.v)
	p.nFrames.Add(1)
	p.closed.Store(true)
	s.gen++ // non-atomic field: no finding
	return n
}

// plainRead mixes a plain load into an atomically updated word.
func plainRead(s *shard) uint64 {
	return s.stats.hits.v // want `plain access to field v`
}

// plainWrite mixes a plain store into an atomically updated word.
func plainWrite(s *shard) {
	s.stats.hits.v = 0 // want `plain access to field v`
}

// plainIncrement is the classic lost-update race.
func plainIncrement(s *shard) {
	s.stats.misses.v++ // want `plain access to field v`
}

// structReset overwrites the atomic cells with plain stores through a
// composite assignment — the resetStats bug shape.
func structReset(s *shard) {
	s.stats = counters{} // want `plain struct assignment overwrites atomic field`
}

// valueCopy reads an atomic value type by copying it.
func valueCopy(p *pool) int64 {
	c := p.nFrames // want `value copy of Int64 field nFrames`
	return c.Load()
}

// addressIsFine takes the address of an atomic value type field, which
// preserves atomicity.
func addressIsFine(p *pool) *atomic.Int64 {
	return &p.nFrames
}

// suppressed shows a justified escape hatch: the constructor owns the
// value exclusively before it is shared.
func suppressed() *shard {
	s := &shard{}
	//segdifflint:ignore atomicmix the shard is not yet shared during construction
	s.stats.hits.v = 1
	return s
}
