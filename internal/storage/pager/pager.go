// Package pager implements the buffer pool of the embedded storage engine:
// fixed-size pages cached in memory with clock (second-chance) eviction,
// pin counts, dirty tracking, and an explicit DropCache hook used by the
// cold-cache experiments (the paper flushes the operating system cache
// before every query in Sections 6.1–6.3 and studies the warm-cache case
// in 6.4).
//
// Concurrency. The pool is lock-striped: frames are partitioned across N
// shards by PageID (adjacent pages land in different shards), and each
// shard has its own reader/writer latch, frame map, and clock ring. A
// cache hit takes only its shard's shared latch for the lookup and pins
// the frame with an atomic counter; Release is a single atomic decrement.
// A miss registers an in-flight read in its shard, performs the file read
// with no latch held (so concurrent misses on different pages overlap
// their I/O), and re-checks under the shard's exclusive latch before
// inserting — two misses on the same page never load it twice. Eviction
// is shard-local against a global frame budget and is safe because
// pinning requires the shard latch (shared or exclusive) while eviction
// holds it exclusively. The checkpoint
// operations (Flush, Sync, DropCache, LogDirty, Discard, Close) and Stats
// acquire every shard latch in ascending shard order, so they observe a
// quiescent pool; DropCache and Discard additionally invalidate (by epoch)
// and drain in-flight reads, so a dropped cache is never repopulated with
// bytes read before the drop. Stats counters are incremented only while a
// shard latch is held and snapshotted under all latches, so a snapshot is
// internally consistent: Hits+Misses equals the number of successful Gets
// and Reads equals Misses. Writers (MarkDirty and the code paths that
// modify page contents) must still be serialized externally against
// readers — the query engine layers a reader/writer lock above
// this package (see sqlmini.DB).
//
// Small pools collapse to a single shard (striping below a few hundred
// frames costs more in eviction imbalance than it buys in parallelism),
// which also preserves the exact clock order of the pre-sharding pager
// for the crash harness's deterministic small-pool workloads.
package pager

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within one file; pages are numbered from 0.
type PageID uint32

// Stats are cumulative buffer pool counters (a consistent snapshot; see
// Pager.Stats). In a fault-free run Hits+Misses equals the number of
// successful Gets and Reads equals Misses.
type Stats struct {
	Hits      uint64 // Get served from cache
	Misses    uint64 // Get required a file read
	Reads     uint64 // pages read from the file
	Writes    uint64 // pages written to the file
	Evictions uint64 // frames evicted to make room
}

// padUint64 is an atomic counter padded to its own cache line. Parallel
// readers increment Hits on every page Get; packing the counters into
// adjacent words would make each increment invalidate the line holding
// all of them in every other core's cache (false sharing). 64-byte lines
// cover x86-64 and most arm64 parts.
type padUint64 struct {
	v uint64
	_ [56]byte
}

// statCounters are the live counters behind Stats, one cache line each.
// They are atomics, but every increment happens while the owning shard's
// latch is held (shared or exclusive), so holding a shard latch
// exclusively excludes increments — that is what makes Stats consistent.
type statCounters struct {
	hits      padUint64
	misses    padUint64
	reads     padUint64
	writes    padUint64
	evictions padUint64
}

type frame struct {
	id      PageID
	data    []byte
	pins    atomic.Int32
	used    atomic.Bool // referenced since the clock hand last passed
	dirty   bool        // buffer differs from the file; writer-owned, see shard doc
	logged  bool        // dirty content captured by the WAL; under no-steal, eviction may write only logged frames
	ringIdx int         // position in shard.ring; maintained under the shard latch
}

// inflightRead is one registered in-progress file read. Waiters block on
// done and then retry their lookup; the epoch recorded at registration
// lets DropCache and Discard invalidate the completion so a dropped cache
// is never repopulated with bytes read before the drop.
type inflightRead struct {
	done  chan struct{}
	epoch uint64
}

// shard is one lock stripe of the pool. Pin counts and reference bits on
// frames are atomics so the hit path never serializes; dirty and logged
// flags are only accessed by the external writer or under the shard latch
// exclusive.
type shard struct {
	mu       sync.RWMutex
	frames   map[PageID]*frame        // guarded by mu
	ring     []*frame                 // guarded by mu; clock order; eviction candidates
	hand     int                      // guarded by mu; clock hand index into ring
	inflight map[PageID]*inflightRead // guarded by mu; reads in progress
	unlogged map[PageID]*frame        // guarded by mu; exactly the frames with dirty && !logged, so LogDirty need not walk the pool
	stats    statCounters             // sync/atomic access only (atomicmix-enforced); incremented under mu (shared or exclusive)
	_        [64]byte                 // keep neighbouring shards off this cache line
}

// maxShards bounds the stripe count; minShardFrames is the pool size at
// which striping starts to pay (below it a single clock over the whole
// pool evicts strictly better).
const (
	maxShards      = 8
	minShardFrames = 64
)

// shardsFor picks the stripe count for a pool of the given capacity: the
// largest power of two that leaves at least minShardFrames frames per
// shard, capped at maxShards.
func shardsFor(capacity int) int {
	n := 1
	for n < maxShards && capacity >= 2*n*minShardFrames {
		n *= 2
	}
	return n
}

// Pager caches pages of a File with a clock replacement policy per shard
// and a global frame budget.
type Pager struct {
	f        File
	capacity int
	shards   []shard
	mask     uint32        // len(shards)-1; shard index = id & mask
	nFrames  atomic.Int64  // total cached frames, all shards
	nPages   atomic.Uint32 // allocated page count
	epoch    atomic.Uint64 // bumped by DropCache/Discard to invalidate in-flight reads
	closed   atomic.Bool   // set once by Close; checked on every entry point
	noSteal  atomic.Bool   // eviction policy; see SetNoSteal
}

// DefaultCapacity is the default buffer pool size in frames (1024 pages =
// 4 MiB), chosen small enough that the paper's cold/warm distinction is
// visible on realistic workloads.
const DefaultCapacity = 1024

// New returns a Pager over f holding at most capacity pages in memory
// (DefaultCapacity if capacity <= 0). The file length must be a multiple
// of PageSize.
func New(f File, capacity int) (*Pager, error) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("pager: size: %w", err)
	}
	if size%PageSize != 0 {
		return nil, fmt.Errorf("pager: file size %d not a multiple of page size", size)
	}
	n := shardsFor(capacity)
	p := &Pager{
		f:        f,
		capacity: capacity,
		shards:   make([]shard, n),
		mask:     uint32(n - 1),
	}
	for i := range p.shards {
		//segdifflint:ignore lockcheck the pager is still being constructed inside New and not yet shared
		p.shards[i].frames = make(map[PageID]*frame)
		//segdifflint:ignore lockcheck the pager is still being constructed inside New and not yet shared
		p.shards[i].inflight = make(map[PageID]*inflightRead)
		//segdifflint:ignore lockcheck the pager is still being constructed inside New and not yet shared
		p.shards[i].unlogged = make(map[PageID]*frame)
	}
	p.nPages.Store(uint32(size / PageSize))
	return p, nil
}

// shardOf returns the shard owning id. Consecutive PageIDs map to
// different shards, so a sequential scan's misses spread across stripes.
func (p *Pager) shardOf(id PageID) *shard {
	return &p.shards[uint32(id)&p.mask]
}

// NumPages returns the number of allocated pages.
func (p *Pager) NumPages() PageID { return PageID(p.nPages.Load()) }

// Capacity returns the buffer pool capacity in frames.
func (p *Pager) Capacity() int { return p.capacity }

// lockAll acquires every shard latch exclusively in ascending shard
// order — the fixed order makes the all-shard operations deadlock-free
// against each other (no other code path holds two shard latches at
// once).
func (p *Pager) lockAll() {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
}

func (p *Pager) unlockAll() {
	for i := len(p.shards) - 1; i >= 0; i-- {
		p.shards[i].mu.Unlock()
	}
}

// addStats folds s's counters into st.
//
// locks: s.mu (any)
func addStats(s *shard, st *Stats) {
	st.Hits += atomic.LoadUint64(&s.stats.hits.v)
	st.Misses += atomic.LoadUint64(&s.stats.misses.v)
	st.Reads += atomic.LoadUint64(&s.stats.reads.v)
	st.Writes += atomic.LoadUint64(&s.stats.writes.v)
	st.Evictions += atomic.LoadUint64(&s.stats.evictions.v)
}

// Stats returns a consistent snapshot of the cumulative counters: every
// counter increment happens under a shard latch, and the snapshot holds
// all of them, so the cross-counter invariants documented on Stats hold
// exactly (fault-free).
func (p *Pager) Stats() Stats {
	p.lockAll()
	defer p.unlockAll()
	var st Stats
	for i := range p.shards {
		addStats(&p.shards[i], &st)
	}
	return st
}

// Page is a pinned page handle, returned by value so the hot read path
// does not allocate. Data is valid until Release; writers must call
// MarkDirty before Release.
type Page struct {
	p  *Pager
	fr *frame
}

// ID returns the page's id.
func (pg *Page) ID() PageID { return pg.fr.id }

// Data returns the page's PageSize-byte buffer.
func (pg *Page) Data() []byte { return pg.fr.data }

// MarkDirty records that the page's buffer was modified. It must only be
// called while the caller holds the engine-level writer lock: readers never
// observe dirty-flag changes concurrently.
func (pg *Page) MarkDirty() {
	fr := pg.fr
	if fr.dirty && !fr.logged {
		return // already queued for LogDirty
	}
	fr.dirty, fr.logged = true, false
	s := pg.p.shardOf(fr.id)
	s.mu.Lock()
	s.unlogged[fr.id] = fr
	s.mu.Unlock()
}

// Release unpins the page. The handle must not be used afterwards.
func (pg *Page) Release() {
	if pg.fr.pins.Add(-1) < 0 {
		panic("pager: release of unpinned page")
	}
	pg.fr = nil
}

// pin pins fr. The caller must hold the owning shard's latch (shared or
// exclusive): eviction holds it exclusively, so a cached frame cannot
// disappear between lookup and pin.
func (fr *frame) pin() {
	fr.pins.Add(1)
	fr.used.Store(true)
}

// checkGet validates a Get.
func (p *Pager) checkGet(id PageID) error {
	if p.closed.Load() {
		return fmt.Errorf("pager: use after close")
	}
	if n := p.nPages.Load(); uint32(id) >= n {
		return fmt.Errorf("pager: page %d out of range (have %d)", id, n)
	}
	return nil
}

// insertFrame adds fr to s's map and clock ring and charges the global
// frame budget.
//
// locks: s.mu
func (p *Pager) insertFrame(s *shard, fr *frame) {
	fr.ringIdx = len(s.ring)
	s.ring = append(s.ring, fr)
	s.frames[fr.id] = fr
	p.nFrames.Add(1)
}

// removeFrame deletes fr from s's map and clock ring (swap-remove) and
// refunds the frame budget.
//
// locks: s.mu
func (p *Pager) removeFrame(s *shard, fr *frame) {
	last := s.ring[len(s.ring)-1]
	s.ring[fr.ringIdx] = last
	last.ringIdx = fr.ringIdx
	s.ring = s.ring[:len(s.ring)-1]
	delete(s.frames, fr.id)
	p.nFrames.Add(-1)
}

// Allocate appends a zeroed page to the file and returns it pinned.
func (p *Pager) Allocate() (Page, error) {
	for {
		if p.closed.Load() {
			return Page{}, fmt.Errorf("pager: use after close")
		}
		id := p.nPages.Load()
		s := p.shardOf(PageID(id))
		s.mu.Lock()
		if p.closed.Load() {
			s.mu.Unlock()
			return Page{}, fmt.Errorf("pager: use after close")
		}
		if err := p.makeRoom(s); err != nil {
			s.mu.Unlock()
			return Page{}, err
		}
		if !p.nPages.CompareAndSwap(id, id+1) {
			// Lost a race with a concurrent Allocate; the new count may
			// belong to a different shard.
			s.mu.Unlock()
			continue
		}
		// New frames start with the used bit clear: recency is earned by a
		// later Get hit, which keeps re-referenced pages ahead of one-shot
		// scans in the clock order.
		fr := &frame{id: PageID(id), data: make([]byte, PageSize), dirty: true}
		fr.pins.Store(1)
		p.insertFrame(s, fr)
		s.unlogged[fr.id] = fr
		s.mu.Unlock()
		return Page{p: p, fr: fr}, nil
	}
}

// hitLocked finishes a Get that found a cached frame.
//
// locks: s.mu (any)
func hitLocked(s *shard, fr *frame) {
	fr.pin()
	atomic.AddUint64(&s.stats.hits.v, 1)
}

// Get returns the page with the given id, pinned. Cache hits run under the
// shard's shared latch and proceed in parallel; a miss registers an
// in-flight read, performs the file read with no latch held, and inserts
// under the exclusive latch. A Get that finds another goroutine's read in
// flight waits for it instead of reading twice.
func (p *Pager) Get(id PageID) (Page, error) {
	s := p.shardOf(id)
	for {
		s.mu.RLock()
		if err := p.checkGet(id); err != nil {
			s.mu.RUnlock()
			return Page{}, err
		}
		if fr, ok := s.frames[id]; ok {
			hitLocked(s, fr)
			s.mu.RUnlock()
			return Page{p: p, fr: fr}, nil
		}
		s.mu.RUnlock()

		fr, retry, err := p.loadDemand(s, id)
		if err != nil {
			return Page{}, err
		}
		if retry {
			continue
		}
		return Page{p: p, fr: fr}, nil
	}
}

// loadDemand resolves a Get miss for id: it joins an in-flight read if one
// exists (retry=true after it completes), otherwise reads the page itself
// and inserts it pinned. A completion invalidated by a concurrent
// DropCache/Discard (epoch mismatch) discards the bytes and asks the
// caller to retry, so the caller never observes pre-drop file content
// through a post-drop cache.
func (p *Pager) loadDemand(s *shard, id PageID) (fr *frame, retry bool, err error) {
	s.mu.Lock()
	if err := p.checkGet(id); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	if fr, ok := s.frames[id]; ok {
		// A concurrent read loaded the page between our two lookups.
		hitLocked(s, fr)
		s.mu.Unlock()
		return fr, false, nil
	}
	if fl, ok := s.inflight[id]; ok {
		done := fl.done
		s.mu.Unlock()
		<-done
		return nil, true, nil
	}
	fl := &inflightRead{done: make(chan struct{}), epoch: p.epoch.Load()}
	s.inflight[id] = fl
	s.mu.Unlock()

	data := make([]byte, PageSize)
	_, rerr := p.f.ReadAt(data, int64(id)*PageSize)

	s.mu.Lock()
	delete(s.inflight, id)
	defer close(fl.done)
	if rerr != nil {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("pager: read page %d: %w", id, rerr)
	}
	if fl.epoch != p.epoch.Load() {
		// DropCache/Discard ran while the read was in flight: the bytes may
		// predate the drop's flush. Retry from a clean slate.
		s.mu.Unlock()
		return nil, true, nil
	}
	if err := p.makeRoom(s); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	fr = &frame{id: id, data: data}
	fr.pins.Store(1)
	p.insertFrame(s, fr)
	atomic.AddUint64(&s.stats.misses.v, 1)
	atomic.AddUint64(&s.stats.reads.v, 1)
	s.mu.Unlock()
	return fr, false, nil
}

// makeRoom evicts unpinned frames chosen by s's clock hand until the
// global frame budget admits a new frame. Recently referenced frames get
// a second chance (their used bit is cleared on the first pass). If no
// frame of this shard is evictable (pinned, or dirty-and-unlogged under
// no-steal) the pool is allowed to grow past capacity — eviction never
// reaches into another shard, which keeps the latch discipline flat.
// Holding s.mu exclusively means a victim with zero pins cannot be
// re-pinned while it is written out.
//
// locks: s.mu
func (p *Pager) makeRoom(s *shard) error {
	for int(p.nFrames.Load()) >= p.capacity && len(s.ring) > 0 {
		var victim *frame
		// Two revolutions: the first clears reference bits, the second
		// must find a victim if any frame is evictable at all.
		for i := 0; i < 2*len(s.ring); i++ {
			if s.hand >= len(s.ring) {
				s.hand = 0
			}
			fr := s.ring[s.hand]
			s.hand++
			if fr.pins.Load() != 0 {
				continue
			}
			if p.noSteal.Load() && fr.dirty && !fr.logged {
				continue // uncommitted content must not reach the file
			}
			if fr.used.CompareAndSwap(true, false) {
				continue // second chance
			}
			victim = fr
			break
		}
		if victim == nil {
			return nil // nothing evictable in this shard: overcommit
		}
		if victim.dirty {
			if err := p.writeFrame(s, victim); err != nil {
				return err // victim stays cached; retry on a later miss
			}
		}
		p.removeFrame(s, victim)
		atomic.AddUint64(&s.stats.evictions.v, 1)
	}
	return nil
}

// SetNoSteal controls the eviction policy required by write-ahead
// logging: while enabled, dirty frames whose content has not been captured
// by LogDirty are never written to the file by eviction (the pool
// overcommits instead). Flush, Sync, DropCache and Close still write all
// dirty frames — they are checkpoint operations.
func (p *Pager) SetNoSteal(on bool) {
	p.noSteal.Store(on)
}

// collectFrames appends s's cached frames matching keep to out.
//
// locks: s.mu (any)
func collectFrames(s *shard, keep func(*frame) bool, out []*frame) []*frame {
	for _, fr := range s.frames {
		if keep(fr) {
			out = append(out, fr)
		}
	}
	return out
}

// sortedFramesLocked returns the cached frames matching keep in ascending
// page order across all shards. The checkpoint paths iterate in this
// order so the engine's file-operation sequence — and hence the WAL's
// byte layout — never depends on map iteration order: the crash harness
// (internal/crashtest) requires that a given (seed, fault script)
// reproduces the exact same operation stream byte for byte.
//
// The caller must hold every shard latch (lockAll).
func (p *Pager) sortedFramesLocked(keep func(*frame) bool) []*frame {
	var out []*frame
	for i := range p.shards {
		out = collectFrames(&p.shards[i], keep, out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// unloggedFrames appends s's dirty-unlogged frames to out.
//
// locks: s.mu (any)
func unloggedFrames(s *shard, out []*frame) []*frame {
	for _, fr := range s.unlogged {
		out = append(out, fr)
	}
	return out
}

// markLogged records that the WAL captured fr's content.
//
// locks: s.mu
func markLogged(s *shard, fr *frame) {
	fr.logged = true
	delete(s.unlogged, fr.id)
}

// LogDirty invokes fn for every dirty frame whose content has not yet been
// logged, in ascending page order, and marks those frames logged (making
// them evictable again under no-steal). The data slice passed to fn is
// only valid during the call. Its cost follows the number of such frames,
// not the pool size: a commit touches a handful of pages per file.
func (p *Pager) LogDirty(fn func(id PageID, data []byte) error) error {
	p.lockAll()
	defer p.unlockAll()
	var frs []*frame
	for i := range p.shards {
		frs = unloggedFrames(&p.shards[i], frs)
	}
	sort.Slice(frs, func(i, j int) bool { return frs[i].id < frs[j].id })
	for _, fr := range frs {
		if err := fn(fr.id, fr.data); err != nil {
			return err
		}
		markLogged(p.shardOf(fr.id), fr)
	}
	return nil
}

// writeFrame writes fr's buffer back to the file and clears its dirty
// flag; eviction and the flush paths call it with the frame unpinned or
// the pool quiesced. s is fr's owning shard (for the write counter).
//
// locks: s.mu
func (p *Pager) writeFrame(s *shard, fr *frame) error {
	if _, err := p.f.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", fr.id, err)
	}
	fr.dirty = false
	delete(s.unlogged, fr.id)
	atomic.AddUint64(&s.stats.writes.v, 1)
	return nil
}

// flushAllLocked writes every dirty cached page back to the file in
// ascending page order (no fsync). The caller must hold every shard latch.
func (p *Pager) flushAllLocked() error {
	for _, fr := range p.sortedFramesLocked(func(fr *frame) bool { return fr.dirty }) {
		if err := p.writeFrame(p.shardOf(fr.id), fr); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every dirty cached page back to the file (without fsync).
func (p *Pager) Flush() error {
	p.lockAll()
	defer p.unlockAll()
	return p.flushAllLocked()
}

// Sync flushes dirty pages and fsyncs the file.
func (p *Pager) Sync() error {
	p.lockAll()
	defer p.unlockAll()
	return p.syncAllLocked()
}

// syncAllLocked flushes all dirty pages and fsyncs the file. The caller
// must hold every shard latch.
func (p *Pager) syncAllLocked() error {
	if err := p.flushAllLocked(); err != nil {
		return err
	}
	return p.f.Sync()
}

// inflightWaits appends the done channels of s's in-flight reads to out.
//
// locks: s.mu (any)
func inflightWaits(s *shard, out []chan struct{}) []chan struct{} {
	for _, fl := range s.inflight {
		out = append(out, fl.done)
	}
	return out
}

// dropShard evicts every unpinned frame of s and resets its clock hand.
//
// locks: s.mu
func (p *Pager) dropShard(s *shard) {
	for i := 0; i < len(s.ring); {
		fr := s.ring[i]
		if fr.pins.Load() != 0 {
			i++
			continue
		}
		p.removeFrame(s, fr) // swap-remove: re-examine index i
		atomic.AddUint64(&s.stats.evictions.v, 1)
	}
	s.hand = 0
}

// DropCache flushes dirty pages and evicts every unpinned frame, simulating
// a cold cache (the experiments' "operating system cache is flushed before
// every query"). Pinned frames are retained. Reads already in flight are
// invalidated (their completions will not repopulate the cache) and drained
// before DropCache returns.
func (p *Pager) DropCache() error {
	p.lockAll()
	p.epoch.Add(1)
	var waits []chan struct{}
	for i := range p.shards {
		waits = inflightWaits(&p.shards[i], waits)
	}
	err := p.flushAllLocked()
	if err == nil {
		for i := range p.shards {
			p.dropShard(&p.shards[i])
		}
	}
	p.unlockAll()
	// Drain with no latch held: the in-flight readers need the shard latch
	// to finish (and will discard their bytes under the new epoch).
	for _, ch := range waits {
		<-ch
	}
	return err
}

// pinnedPage returns a pinned page id of s, if any.
//
// locks: s.mu (any)
func pinnedPage(s *shard) (PageID, bool) {
	for _, fr := range s.frames {
		if fr.pins.Load() > 0 {
			return fr.id, true
		}
	}
	return 0, false
}

// discardShard drops every frame of s without writing back and returns
// the number dropped.
//
// locks: s.mu
func discardShard(s *shard) int64 {
	n := int64(len(s.frames))
	s.frames = make(map[PageID]*frame)
	s.unlogged = make(map[PageID]*frame)
	s.ring = s.ring[:0]
	s.hand = 0
	return n
}

// Discard drops every cached frame without writing anything back and
// re-derives the page count from the file. It is the batch-abort hook:
// uncommitted dirty frames vanish, and the engine then restores committed
// page content by WAL replay before re-reading through the pager.
// Outstanding pins are an error. Like DropCache, it invalidates and
// drains in-flight reads.
func (p *Pager) Discard() error {
	p.lockAll()
	if p.closed.Load() {
		p.unlockAll()
		return fmt.Errorf("pager: use after close")
	}
	for i := range p.shards {
		if id, pinned := pinnedPage(&p.shards[i]); pinned {
			p.unlockAll()
			return fmt.Errorf("pager: discard with page %d still pinned", id)
		}
	}
	p.epoch.Add(1)
	var waits []chan struct{}
	var dropped int64
	for i := range p.shards {
		waits = inflightWaits(&p.shards[i], waits)
		dropped += discardShard(&p.shards[i])
	}
	p.nFrames.Add(-dropped)
	size, err := p.f.Size()
	if err != nil {
		p.unlockAll()
		return err
	}
	p.nPages.Store(uint32(size / PageSize))
	p.unlockAll()
	for _, ch := range waits {
		<-ch
	}
	return nil
}

// resetStats zeroes s's counters. Every other accessor touches these
// cells through sync/atomic, so the reset stores atomically too: the old
// plain struct overwrite (`s.stats = statCounters{}`) was only safe as
// long as every reader happened to hold latches, and would silently
// become a tearing race the moment anyone adds a latch-free counter
// probe. atomicmix forbids the mixed pattern outright.
//
// locks: s.mu
func resetStats(s *shard) {
	atomic.StoreUint64(&s.stats.hits.v, 0)
	atomic.StoreUint64(&s.stats.misses.v, 0)
	atomic.StoreUint64(&s.stats.reads.v, 0)
	atomic.StoreUint64(&s.stats.writes.v, 0)
	atomic.StoreUint64(&s.stats.evictions.v, 0)
}

// ResetStats zeroes the counters (used between experiment runs).
func (p *Pager) ResetStats() {
	p.lockAll()
	defer p.unlockAll()
	for i := range p.shards {
		resetStats(&p.shards[i])
	}
}

// SizeBytes returns the file size implied by the allocated page count.
func (p *Pager) SizeBytes() int64 {
	return int64(p.nPages.Load()) * PageSize
}

// Close flushes and closes the underlying file. Pinned pages outstanding
// at Close are an error.
func (p *Pager) Close() error {
	for {
		p.lockAll()
		if p.closed.Load() {
			p.unlockAll()
			return nil
		}
		for i := range p.shards {
			if id, pinned := pinnedPage(&p.shards[i]); pinned {
				p.unlockAll()
				return fmt.Errorf("pager: close with page %d still pinned", id)
			}
		}
		var waits []chan struct{}
		for i := range p.shards {
			waits = inflightWaits(&p.shards[i], waits)
		}
		if len(waits) == 0 {
			if err := p.syncAllLocked(); err != nil {
				p.unlockAll()
				return err
			}
			p.closed.Store(true)
			p.unlockAll()
			return p.f.Close()
		}
		// Demand reads still in flight: let them finish against the open
		// file, then re-examine the pool.
		p.unlockAll()
		for _, ch := range waits {
			<-ch
		}
	}
}
