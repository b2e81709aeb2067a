package pager

// Test-only accessors for cache internals; they take the pool's mutex so
// they are safe under the race detector and the lockcheck analyzer.

// cachedForTest reports whether id is resident in the pool.
func (p *Pager) cachedForTest(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

// unloggedDriftForTest compares the unlogged set with the frame flags it
// must mirror (dirty && !logged) and returns a page on which the two
// disagree.
func (p *Pager) unloggedDriftForTest() (PageID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, fr := range p.frames {
		if _, listed := p.unlogged[id]; listed != (fr.dirty && !fr.logged) {
			return id, true
		}
	}
	for id, fr := range p.unlogged {
		if p.frames[id] != fr {
			return id, true
		}
	}
	return 0, false
}
