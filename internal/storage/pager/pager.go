// Package pager implements the buffer pool of the embedded storage engine:
// fixed-size pages cached in memory with clock (second-chance) eviction,
// pin counts and dirty tracking.
//
// Concurrency. One mutex guards the whole pool: the frame map, the clock
// ring, the unlogged-frame set, every frame's pin count and flags, and the
// Stats counters. A miss reads its page with the mutex held, so two misses
// of one page read it once, Discard and Close never race a read, and a
// Stats snapshot is internally consistent: Hits+Misses equals the number
// of successful Gets and Reads equals Misses (fault-free). Each index file
// has its own pager and at most one apply worker at ingest, and served
// searches scan the in-memory segment mirror, so the pool's only
// concurrent readers are the reference union's parallel branches.
// Writers (MarkDirty and the code paths that modify page contents) must
// still be serialized externally against readers — the query engine
// layers a reader/writer lock above this package (see sqlmini.DB).
package pager

import (
	"fmt"
	"sort"
	"sync"
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

// frame is one cached page. Every field but id and data changes only
// under the owning Pager's mutex.
type frame struct {
	id      PageID
	data    []byte
	pins    int32
	used    bool // referenced since the clock hand last passed
	dirty   bool // buffer differs from the file
	logged  bool // dirty content captured by the WAL; under no-steal, eviction may write only logged frames
	ringIdx int  // position in Pager.ring
}

// Pager caches pages of a File with one clock over the whole pool.
type Pager struct {
	f        File
	capacity int

	mu       sync.Mutex
	frames   map[PageID]*frame // guarded by mu
	ring     []*frame          // guarded by mu; clock order; eviction candidates
	hand     int               // guarded by mu; clock hand index into ring
	unlogged map[PageID]*frame // guarded by mu; exactly the frames with dirty && !logged, so LogDirty need not walk the pool
	nPages   PageID            // guarded by mu; allocated page count
	stats    Stats             // guarded by mu
	closed   bool              // guarded by mu
	noSteal  bool              // guarded by mu; eviction policy, see SetNoSteal
}

// DefaultCapacity is the default buffer pool size in frames (1024 pages =
// 4 MiB).
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
	return &Pager{
		f:        f,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		unlogged: make(map[PageID]*frame),
		nPages:   PageID(size / PageSize),
	}, nil
}

// NumPages returns the number of allocated pages.
func (p *Pager) NumPages() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nPages
}

// Stats returns a consistent snapshot of the cumulative counters.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
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
// observe buffer changes concurrently.
func (pg *Page) MarkDirty() {
	p, fr := pg.p, pg.fr
	p.mu.Lock()
	if !fr.dirty || fr.logged {
		fr.dirty, fr.logged = true, false
		p.unlogged[fr.id] = fr
	}
	p.mu.Unlock()
}

// Release unpins the page. The handle must not be used afterwards.
func (pg *Page) Release() {
	p := pg.p
	p.mu.Lock()
	pg.fr.pins--
	pins := pg.fr.pins
	p.mu.Unlock()
	if pins < 0 {
		panic("pager: release of unpinned page")
	}
	pg.fr = nil
}

// insertFrame adds fr to the frame map and the clock ring.
//
// locks: p.mu
func (p *Pager) insertFrame(fr *frame) {
	fr.ringIdx = len(p.ring)
	p.ring = append(p.ring, fr)
	p.frames[fr.id] = fr
}

// removeFrame deletes fr from the frame map and the clock ring
// (swap-remove).
//
// locks: p.mu
func (p *Pager) removeFrame(fr *frame) {
	last := p.ring[len(p.ring)-1]
	p.ring[fr.ringIdx] = last
	last.ringIdx = fr.ringIdx
	p.ring[len(p.ring)-1] = nil
	p.ring = p.ring[:len(p.ring)-1]
	delete(p.frames, fr.id)
}

// Allocate appends a zeroed page to the file and returns it pinned.
func (p *Pager) Allocate() (Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Page{}, fmt.Errorf("pager: use after close")
	}
	if err := p.makeRoom(); err != nil {
		return Page{}, err
	}
	// New frames start with the used bit clear: recency is earned by a
	// later Get hit, which keeps re-referenced pages ahead of one-shot
	// scans in the clock order.
	fr := &frame{id: p.nPages, data: make([]byte, PageSize), pins: 1, dirty: true}
	p.nPages++
	p.insertFrame(fr)
	p.unlogged[fr.id] = fr
	return Page{p: p, fr: fr}, nil
}

// Get returns the page with the given id, pinned. A miss reads the page
// from the file with the mutex held and inserts it with its used bit
// clear, like Allocate.
func (p *Pager) Get(id PageID) (Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Page{}, fmt.Errorf("pager: use after close")
	}
	if id >= p.nPages {
		return Page{}, fmt.Errorf("pager: page %d out of range (have %d)", id, p.nPages)
	}
	if fr, ok := p.frames[id]; ok {
		fr.pins++
		fr.used = true
		p.stats.Hits++
		return Page{p: p, fr: fr}, nil
	}
	data := make([]byte, PageSize)
	if _, err := p.f.ReadAt(data, int64(id)*PageSize); err != nil {
		return Page{}, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	if err := p.makeRoom(); err != nil {
		return Page{}, err
	}
	fr := &frame{id: id, data: data, pins: 1}
	p.insertFrame(fr)
	p.stats.Misses++
	p.stats.Reads++
	return Page{p: p, fr: fr}, nil
}

// makeRoom evicts unpinned frames chosen by the clock hand until the pool
// admits a new frame. Recently referenced frames get a second chance
// (their used bit is cleared on the first pass). If no frame is evictable
// (pinned, or dirty-and-unlogged under no-steal) the pool is allowed to
// grow past capacity.
//
// locks: p.mu
func (p *Pager) makeRoom() error {
	for len(p.ring) >= p.capacity {
		var victim *frame
		// Two revolutions: the first clears reference bits, the second
		// must find a victim if any frame is evictable at all.
		for i := 0; i < 2*len(p.ring); i++ {
			if p.hand >= len(p.ring) {
				p.hand = 0
			}
			fr := p.ring[p.hand]
			p.hand++
			if fr.pins != 0 {
				continue
			}
			if p.noSteal && fr.dirty && !fr.logged {
				continue // uncommitted content must not reach the file
			}
			if fr.used {
				fr.used = false // second chance
				continue
			}
			victim = fr
			break
		}
		if victim == nil {
			return nil // nothing evictable: overcommit
		}
		if victim.dirty {
			if err := p.writeFrame(victim); err != nil {
				return err // victim stays cached; retry on a later miss
			}
		}
		p.removeFrame(victim)
		p.stats.Evictions++
	}
	return nil
}

// SetNoSteal controls the eviction policy required by write-ahead
// logging: while enabled, dirty frames whose content has not been captured
// by LogDirty are never written to the file by eviction (the pool
// overcommits instead). Flush, Sync and Close still write all dirty
// frames — they are checkpoint operations.
func (p *Pager) SetNoSteal(on bool) {
	p.mu.Lock()
	p.noSteal = on
	p.mu.Unlock()
}

// sortByID orders frames by ascending page id. The checkpoint paths
// iterate in this order so the engine's file-operation sequence — and
// hence the WAL's byte layout — never depends on map iteration order: the
// crash harness (internal/crashtest) requires that a given (seed, fault
// script) reproduces the exact same operation stream byte for byte.
func sortByID(frs []*frame) {
	sort.Slice(frs, func(i, j int) bool { return frs[i].id < frs[j].id })
}

// LogDirty invokes fn for every dirty frame whose content has not yet been
// logged, in ascending page order, and marks those frames logged (making
// them evictable again under no-steal). The data slice passed to fn is
// only valid during the call. Its cost follows the number of such frames,
// not the pool size: a commit touches a handful of pages per file.
func (p *Pager) LogDirty(fn func(id PageID, data []byte) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	frs := make([]*frame, 0, len(p.unlogged))
	for _, fr := range p.unlogged {
		frs = append(frs, fr)
	}
	sortByID(frs)
	for _, fr := range frs {
		if err := fn(fr.id, fr.data); err != nil {
			return err
		}
		fr.logged = true
		delete(p.unlogged, fr.id)
	}
	return nil
}

// writeFrame writes fr's buffer back to the file and clears its dirty
// flag; eviction and the flush paths call it with the frame unpinned or
// the writer holding the engine lock.
//
// locks: p.mu
func (p *Pager) writeFrame(fr *frame) error {
	if _, err := p.f.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", fr.id, err)
	}
	fr.dirty = false
	delete(p.unlogged, fr.id)
	p.stats.Writes++
	return nil
}

// flushLocked writes every dirty cached page back to the file in
// ascending page order (no fsync).
//
// locks: p.mu
func (p *Pager) flushLocked() error {
	var frs []*frame
	for _, fr := range p.frames {
		if fr.dirty {
			frs = append(frs, fr)
		}
	}
	sortByID(frs)
	for _, fr := range frs {
		if err := p.writeFrame(fr); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every dirty cached page back to the file (without fsync).
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

// Sync flushes dirty pages and fsyncs the file.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	return p.f.Sync()
}

// pinnedErr returns an error naming a pinned page, if any, for op.
//
// locks: p.mu
func (p *Pager) pinnedErr(op string) error {
	for _, fr := range p.frames {
		if fr.pins > 0 {
			return fmt.Errorf("pager: %s with page %d still pinned", op, fr.id)
		}
	}
	return nil
}

// Discard drops every cached frame without writing anything back and
// re-derives the page count from the file. It is the batch-abort hook:
// uncommitted dirty frames vanish, and the engine then restores committed
// page content by WAL replay before re-reading through the pager.
// Outstanding pins are an error.
func (p *Pager) Discard() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("pager: use after close")
	}
	if err := p.pinnedErr("discard"); err != nil {
		return err
	}
	clear(p.frames)
	clear(p.unlogged)
	p.ring, p.hand = nil, 0
	size, err := p.f.Size()
	if err != nil {
		return err
	}
	p.nPages = PageID(size / PageSize)
	return nil
}

// SizeBytes returns the file size implied by the allocated page count.
func (p *Pager) SizeBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.nPages) * PageSize
}

// Close flushes, fsyncs and closes the underlying file. Pinned pages
// outstanding at Close are an error; a second Close is a no-op.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if err := p.pinnedErr("close"); err != nil {
		return err
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	p.closed = true
	return p.f.Close()
}
