// Package heap implements slotted-page heap files: unordered record
// storage with stable record IDs, full scans in page order, and lazy
// deletion. It is the table storage of the embedded engine; rows are
// opaque byte strings encoded by the layer above.
//
// Page layout (within a pager.PageSize page):
//
//	offset 0:  uint16 slot count
//	offset 2:  uint16 free-space start (grows down from the page end)
//	offset 4:  slot directory: per slot {uint16 offset, uint16 length}
//	...        free space ...
//	records packed at the end of the page, growing toward the directory
//
// A deleted slot has offset 0xFFFF; its space is not reclaimed (lazy
// delete), which matches the insert-dominated workload of the system.
package heap

import (
	"encoding/binary"
	"fmt"

	"segdiff/internal/storage/pager"
)

const (
	headerSize = 4
	slotSize   = 4
	deadOffset = 0xFFFF
)

// MaxRecord is the largest record that fits in one page.
const MaxRecord = pager.PageSize - headerSize - slotSize

// RID identifies a record: page number and slot within the page.
type RID struct {
	Page pager.PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", r.Page, r.Slot) }

// Heap is a heap file over a pager. Reads (Get, Scan, Len) keep no mutable
// state of their own, so any number of them may run concurrently on top of
// the pager's reader-friendly latches; Insert and Delete mutate the heap
// and must be serialized externally against all other calls (the engine's
// writer lock does this).
type Heap struct {
	pg   *pager.Pager
	last pager.PageID // page currently receiving inserts
	n    int          // live record count (maintained since open)
}

// Open returns a heap over pg. The live record count is recovered by a
// scan of the slot directories (pages are pulled through the cache).
func Open(pg *pager.Pager) (*Heap, error) { return OpenVisit(pg, nil) }

// OpenVisit is Open with a hook on that same page pass: a non-nil visit is
// called for every live record in page/slot order, so the layer above can
// derive per-page state (the engine's zone maps) without a second read of
// the file. The record slice is only valid during the call.
func OpenVisit(pg *pager.Pager, visit func(RID, []byte) error) (*Heap, error) {
	h := &Heap{pg: pg}
	if pg.NumPages() > 0 {
		h.last = pg.NumPages() - 1
	}
	err := h.Scan(func(rid RID, rec []byte) (bool, error) {
		h.n++
		if visit == nil {
			return true, nil
		}
		return true, visit(rid, rec)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Len returns the number of live records.
func (h *Heap) Len() int { return h.n }

// Insert stores rec and returns its RID.
func (h *Heap) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecord {
		return RID{}, fmt.Errorf("heap: record of %d bytes exceeds max %d", len(rec), MaxRecord)
	}
	if h.pg.NumPages() == 0 {
		p, err := h.pg.Allocate()
		if err != nil {
			return RID{}, err
		}
		initPage(p.Data())
		p.MarkDirty()
		p.Release()
		h.last = 0
	}
	p, err := h.pg.Get(h.last)
	if err != nil {
		return RID{}, err
	}
	slot, ok := tryInsert(p.Data(), rec)
	if ok {
		p.MarkDirty()
		rid := RID{Page: p.ID(), Slot: slot}
		p.Release()
		h.n++
		return rid, nil
	}
	p.Release()
	// Current page full: start a new one.
	np, err := h.pg.Allocate()
	if err != nil {
		return RID{}, err
	}
	initPage(np.Data())
	slot, ok = tryInsert(np.Data(), rec)
	if !ok {
		np.Release()
		return RID{}, fmt.Errorf("heap: record of %d bytes does not fit an empty page", len(rec))
	}
	np.MarkDirty()
	rid := RID{Page: np.ID(), Slot: slot}
	h.last = np.ID()
	np.Release()
	h.n++
	return rid, nil
}

// InsertBatch stores recs in order and returns their RIDs. It is
// equivalent to one Insert per record — same pages, same slots — but pins
// the tail page once across consecutive inserts instead of once per
// record, which matters on the engine's batched write path.
func (h *Heap) InsertBatch(recs [][]byte) ([]RID, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	rids := make([]RID, 0, len(recs))
	var p pager.Page
	pinned := false
	unpin := func() {
		if pinned {
			p.Release()
			pinned = false
		}
	}
	newPage := func() error {
		np, err := h.pg.Allocate()
		if err != nil {
			return err
		}
		initPage(np.Data())
		h.last = np.ID()
		p = np
		pinned = true
		return nil
	}
	for _, rec := range recs {
		if len(rec) > MaxRecord {
			unpin()
			return nil, fmt.Errorf("heap: record of %d bytes exceeds max %d", len(rec), MaxRecord)
		}
		if !pinned {
			if h.pg.NumPages() == 0 {
				if err := newPage(); err != nil {
					return nil, err
				}
			} else {
				gp, err := h.pg.Get(h.last)
				if err != nil {
					return nil, err
				}
				p = gp
				pinned = true
			}
		}
		slot, ok := tryInsert(p.Data(), rec)
		if !ok {
			unpin()
			if err := newPage(); err != nil {
				return nil, err
			}
			slot, ok = tryInsert(p.Data(), rec)
			if !ok {
				unpin()
				return nil, fmt.Errorf("heap: record of %d bytes does not fit an empty page", len(rec))
			}
		}
		p.MarkDirty()
		rids = append(rids, RID{Page: p.ID(), Slot: slot})
		h.n++
	}
	unpin()
	return rids, nil
}

// Get returns a copy of the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	rec, err := h.View(rid)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// View returns the record bytes at rid without copying. The slice aliases
// buffer pool memory: record bytes are never moved or overwritten in place
// (deletion only tombstones the slot directory and the pager never
// recycles a frame's buffer), but callers that outlive the enclosing
// read-locked section must copy — a writer may reuse the page's free
// space, and Get exists for exactly that.
func (h *Heap) View(rid RID) ([]byte, error) {
	p, err := h.pg.Get(rid.Page)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	rec, err := read(p.Data(), rid.Slot)
	if err != nil {
		return nil, fmt.Errorf("heap: %v: %w", rid, err)
	}
	return rec, nil
}

// Delete tombstones the record at rid. Deleting a dead or absent slot is
// an error.
func (h *Heap) Delete(rid RID) error {
	p, err := h.pg.Get(rid.Page)
	if err != nil {
		return err
	}
	defer p.Release()
	data := p.Data()
	nSlots := binary.LittleEndian.Uint16(data[0:2])
	if rid.Slot >= nSlots {
		return fmt.Errorf("heap: %v: no such slot", rid)
	}
	se := headerSize + int(rid.Slot)*slotSize
	if binary.LittleEndian.Uint16(data[se:]) == deadOffset {
		return fmt.Errorf("heap: %v: already deleted", rid)
	}
	binary.LittleEndian.PutUint16(data[se:], deadOffset)
	p.MarkDirty()
	h.n--
	return nil
}

// Scan calls fn for every live record in page/slot order. The record slice
// is only valid during the call. fn returning false stops the scan early.
func (h *Heap) Scan(fn func(RID, []byte) (bool, error)) error {
	return h.ScanPages(nil, fn)
}

// ScanPages is Scan with page-level pruning. A non-nil keep skips whole
// pages for which keep(id) is false without reading them — the engine
// passes a zone-map check here, which is advisory only: keep must
// over-approximate (it may admit pages with no matching rows, never the
// reverse).
func (h *Heap) ScanPages(keep func(pager.PageID) bool, fn func(RID, []byte) (bool, error)) error {
	nPages := h.pg.NumPages()
	for id := pager.PageID(0); id < nPages; id++ {
		if keep != nil && !keep(id) {
			continue
		}
		p, err := h.pg.Get(id)
		if err != nil {
			return err
		}
		data := p.Data()
		nSlots := binary.LittleEndian.Uint16(data[0:2])
		for s := uint16(0); s < nSlots; s++ {
			rec, err := read(data, s)
			if err != nil {
				continue // tombstone
			}
			cont, err := fn(RID{Page: id, Slot: s}, rec)
			if err != nil {
				p.Release()
				return err
			}
			if !cont {
				p.Release()
				return nil
			}
		}
		p.Release()
	}
	return nil
}

func initPage(data []byte) {
	binary.LittleEndian.PutUint16(data[0:2], 0)
	binary.LittleEndian.PutUint16(data[2:4], pager.PageSize)
}

// tryInsert places rec in the page if space permits, returning the slot.
func tryInsert(data []byte, rec []byte) (uint16, bool) {
	nSlots := binary.LittleEndian.Uint16(data[0:2])
	freeEnd := binary.LittleEndian.Uint16(data[2:4])
	dirEnd := headerSize + (int(nSlots)+1)*slotSize
	if int(freeEnd)-len(rec) < dirEnd {
		return 0, false
	}
	off := freeEnd - uint16(len(rec))
	copy(data[off:freeEnd], rec)
	se := headerSize + int(nSlots)*slotSize
	binary.LittleEndian.PutUint16(data[se:], off)
	binary.LittleEndian.PutUint16(data[se+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(data[0:2], nSlots+1)
	binary.LittleEndian.PutUint16(data[2:4], off)
	return nSlots, true
}

// read returns the live record bytes at slot s, or an error for dead or
// out-of-range slots.
func read(data []byte, s uint16) ([]byte, error) {
	nSlots := binary.LittleEndian.Uint16(data[0:2])
	if s >= nSlots {
		return nil, fmt.Errorf("slot %d out of range (%d slots)", s, nSlots)
	}
	se := headerSize + int(s)*slotSize
	off := binary.LittleEndian.Uint16(data[se:])
	if off == deadOffset {
		return nil, fmt.Errorf("slot %d deleted", s)
	}
	ln := binary.LittleEndian.Uint16(data[se+2:])
	return data[off : off+ln], nil
}
