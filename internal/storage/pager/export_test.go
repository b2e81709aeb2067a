package pager

// Test-only accessors for cache internals; they take the shard latches so
// they are safe under the race detector and the lockcheck analyzer.

// cachedForTest reports whether id is resident in the pool.
func (p *Pager) cachedForTest(id PageID) bool {
	s := p.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.frames[id]
	return ok
}

// cachedCountForTest returns the total number of resident frames.
func (p *Pager) cachedCountForTest() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		n += len(s.frames)
		s.mu.RUnlock()
	}
	return n
}

// numShardsForTest returns the stripe count.
func (p *Pager) numShardsForTest() int { return len(p.shards) }

// unloggedDriftForTest compares each shard's unlogged set with the frame
// flags it must mirror (dirty && !logged) and returns a page on which the
// two disagree.
func (p *Pager) unloggedDriftForTest() (PageID, bool) {
	p.lockAll()
	defer p.unlockAll()
	for i := range p.shards {
		if id, drift := unloggedDrift(&p.shards[i]); drift {
			return id, true
		}
	}
	return 0, false
}

// locks: s.mu (any)
func unloggedDrift(s *shard) (PageID, bool) {
	for id, fr := range s.frames {
		if _, listed := s.unlogged[id]; listed != (fr.dirty && !fr.logged) {
			return id, true
		}
	}
	for id, fr := range s.unlogged {
		if s.frames[id] != fr {
			return id, true
		}
	}
	return 0, false
}
