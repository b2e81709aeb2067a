// Package btree implements a disk-backed B+tree index over the pager:
// variable-length byte-string keys in order-preserving encoding (see
// keyenc), values stored only at the leaves, leaf pages chained for range
// scans. It backs CREATE INDEX in the sqlmini engine and is the analogue
// of the MySQL B-tree indexes of the paper's experiments.
//
// Keys must be unique. The engine guarantees this by appending the row's
// RID to every index key, the standard secondary-index construction; range
// scans over a key prefix are unaffected by the suffix.
//
// Deletion removes the leaf entry without rebalancing (lazy deletion),
// which is appropriate for the system's insert-dominated workload.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"segdiff/internal/storage/pager"
)

const (
	magic        = 0x53444254 // "SDBT"
	leafType     = 1
	internalType = 2

	// MaxKey and MaxVal bound entry sizes so a count-based node split
	// always produces halves that fit in a page.
	MaxKey = 512
	MaxVal = 512
)

// Tree is a B+tree. Reads (Get, Seek, ScanRange, Len, Height) touch no
// tree state, so any number of them may run concurrently on top of the
// pager's reader-friendly locking; Insert and Delete mutate the tree and
// must be serialized externally against all other calls (the engine's
// writer lock does this). Key and value slices handed out by reads alias
// buffer pool memory and are stable only until the next mutating call —
// callers that outlive the enclosing read-locked section must copy.
type Tree struct {
	pg   *pager.Pager
	root pager.PageID
	n    uint64 // entry count
}

// Open opens (or initializes) a tree on pg. A fresh pager gets a meta page
// and an empty root leaf.
func Open(pg *pager.Pager) (*Tree, error) {
	t := &Tree{pg: pg}
	if pg.NumPages() == 0 {
		meta, err := pg.Allocate()
		if err != nil {
			return nil, err
		}
		if meta.ID() != 0 {
			meta.Release()
			return nil, fmt.Errorf("btree: meta page allocated at %d", meta.ID())
		}
		rootPg, err := pg.Allocate()
		if err != nil {
			meta.Release()
			return nil, err
		}
		t.root = rootPg.ID()
		writeNode(rootPg.Data(), &node{leaf: true})
		rootPg.MarkDirty()
		rootPg.Release()
		t.n = 0
		t.writeMeta(&meta)
		meta.Release()
		return t, nil
	}
	meta, err := pg.Get(0)
	if err != nil {
		return nil, err
	}
	defer meta.Release()
	d := meta.Data()
	if binary.LittleEndian.Uint32(d[0:4]) != magic {
		return nil, fmt.Errorf("btree: bad magic in meta page")
	}
	t.root = pager.PageID(binary.LittleEndian.Uint32(d[4:8]))
	t.n = binary.LittleEndian.Uint64(d[8:16])
	return t, nil
}

func (t *Tree) writeMeta(meta *pager.Page) {
	d := meta.Data()
	binary.LittleEndian.PutUint32(d[0:4], magic)
	binary.LittleEndian.PutUint32(d[4:8], uint32(t.root))
	binary.LittleEndian.PutUint64(d[8:16], t.n)
	meta.MarkDirty()
}

func (t *Tree) syncMeta() error {
	meta, err := t.pg.Get(0)
	if err != nil {
		return err
	}
	t.writeMeta(&meta)
	meta.Release()
	return nil
}

// Len returns the number of entries.
func (t *Tree) Len() uint64 { return t.n }

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		nd, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if nd.leaf {
			return h, nil
		}
		id = nd.children[0]
		h++
	}
}

// node is the decoded in-memory form of a tree page.
type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte       // leaf only, parallel to keys
	children []pager.PageID // internal only, len(keys)+1
	next     pager.PageID   // leaf only; 0 = none (page 0 is meta)
}

// readNode decodes page id for reading. The decoded keys and values alias
// the buffer pool frame directly (zero copy). This is safe because the
// pager never recycles a frame's buffer — eviction drops the reference and
// a re-read allocates fresh memory — and because page contents are only
// mutated under the engine's writer lock, which excludes every reader that
// could hold a decoded node.
func (t *Tree) readNode(id pager.PageID) (*node, error) {
	p, err := t.pg.Get(id)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return decodeNode(p.Data(), false)
}

// readNodeMut decodes page id for a mutating caller. Keys and values are
// copied into a private arena: insert and delete rewrite the same page the
// node came from, and writeNode must not read key bytes that alias the
// region it is overwriting.
func (t *Tree) readNodeMut(id pager.PageID) (*node, error) {
	p, err := t.pg.Get(id)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return decodeNode(p.Data(), true)
}

func (t *Tree) writeNodeTo(id pager.PageID, nd *node) error {
	p, err := t.pg.Get(id)
	if err != nil {
		return err
	}
	writeNode(p.Data(), nd)
	p.MarkDirty()
	p.Release()
	return nil
}

// decodeNode decodes a page image. With copyArena the key and value bytes
// are copied into a private buffer (needed by mutating callers); otherwise
// they alias d, keeping the read path at a handful of allocations instead
// of two per entry.
func decodeNode(d []byte, copyArena bool) (*node, error) {
	nd := &node{}
	switch d[0] {
	case leafType:
		nd.leaf = true
	case internalType:
	default:
		return nil, fmt.Errorf("btree: bad node type %d", d[0])
	}
	nKeys := int(binary.LittleEndian.Uint16(d[1:3]))
	off := 3
	buf := d
	if copyArena {
		buf = make([]byte, len(d))
		copy(buf, d)
	}
	if nd.leaf {
		nd.next = pager.PageID(binary.LittleEndian.Uint32(d[off:]))
		off += 4
		nd.keys = make([][]byte, 0, nKeys)
		nd.vals = make([][]byte, 0, nKeys)
		for i := 0; i < nKeys; i++ {
			kl := int(binary.LittleEndian.Uint16(d[off:]))
			vl := int(binary.LittleEndian.Uint16(d[off+2:]))
			off += 4
			nd.keys = append(nd.keys, buf[off:off+kl:off+kl])
			off += kl
			nd.vals = append(nd.vals, buf[off:off+vl:off+vl])
			off += vl
		}
		return nd, nil
	}
	nd.keys = make([][]byte, 0, nKeys)
	nd.children = make([]pager.PageID, 0, nKeys+1)
	nd.children = append(nd.children, pager.PageID(binary.LittleEndian.Uint32(d[off:])))
	off += 4
	for i := 0; i < nKeys; i++ {
		kl := int(binary.LittleEndian.Uint16(d[off:]))
		off += 2
		nd.keys = append(nd.keys, buf[off:off+kl:off+kl])
		off += kl
		nd.children = append(nd.children, pager.PageID(binary.LittleEndian.Uint32(d[off:])))
		off += 4
	}
	return nd, nil
}

func nodeSize(nd *node) int {
	if nd.leaf {
		s := 3 + 4
		for i, k := range nd.keys {
			s += 4 + len(k) + len(nd.vals[i])
		}
		return s
	}
	s := 3 + 4
	for _, k := range nd.keys {
		s += 2 + len(k) + 4
	}
	return s
}

func writeNode(d []byte, nd *node) {
	if nodeSize(nd) > pager.PageSize {
		panic(fmt.Sprintf("btree: node of %d bytes exceeds page", nodeSize(nd)))
	}
	if nd.leaf {
		d[0] = leafType
	} else {
		d[0] = internalType
	}
	binary.LittleEndian.PutUint16(d[1:3], uint16(len(nd.keys)))
	off := 3
	if nd.leaf {
		binary.LittleEndian.PutUint32(d[off:], uint32(nd.next))
		off += 4
		for i, k := range nd.keys {
			binary.LittleEndian.PutUint16(d[off:], uint16(len(k)))
			binary.LittleEndian.PutUint16(d[off+2:], uint16(len(nd.vals[i])))
			off += 4
			copy(d[off:], k)
			off += len(k)
			copy(d[off:], nd.vals[i])
			off += len(nd.vals[i])
		}
		return
	}
	binary.LittleEndian.PutUint32(d[off:], uint32(nd.children[0]))
	off += 4
	for i, k := range nd.keys {
		binary.LittleEndian.PutUint16(d[off:], uint16(len(k)))
		off += 2
		copy(d[off:], k)
		off += len(k)
		binary.LittleEndian.PutUint32(d[off:], uint32(nd.children[i+1]))
		off += 4
	}
}

// childIndex returns the index of the child to descend into for key.
func childIndex(nd *node, key []byte) int {
	i := 0
	for i < len(nd.keys) && bytes.Compare(key, nd.keys[i]) >= 0 {
		i++
	}
	return i
}

// ErrDuplicateKey is returned by Insert for an existing key.
var ErrDuplicateKey = fmt.Errorf("btree: duplicate key")

// ErrKeyNotFound is returned by Delete and Get for a missing key.
var ErrKeyNotFound = fmt.Errorf("btree: key not found")

// Insert adds a key/value entry. Keys must be unique.
func (t *Tree) Insert(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKey {
		return fmt.Errorf("btree: key length %d outside 1..%d", len(key), MaxKey)
	}
	if len(val) > MaxVal {
		return fmt.Errorf("btree: value length %d exceeds %d", len(val), MaxVal)
	}
	sepKey, newID, split, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if split {
		rootPg, err := t.pg.Allocate()
		if err != nil {
			return err
		}
		newRoot := &node{
			keys:     [][]byte{sepKey},
			children: []pager.PageID{t.root, newID},
		}
		writeNode(rootPg.Data(), newRoot)
		rootPg.MarkDirty()
		t.root = rootPg.ID()
		rootPg.Release()
	}
	t.n++
	return t.syncMeta()
}

// insert descends into page id. On split it returns the separator key and
// the new right sibling's page id.
func (t *Tree) insert(id pager.PageID, key, val []byte) (sep []byte, newID pager.PageID, split bool, err error) {
	nd, err := t.readNodeMut(id)
	if err != nil {
		return nil, 0, false, err
	}
	if nd.leaf {
		i := lowerBound(nd.keys, key)
		if i < len(nd.keys) && bytes.Equal(nd.keys[i], key) {
			return nil, 0, false, fmt.Errorf("%w: %x", ErrDuplicateKey, key)
		}
		nd.keys = insertAt(nd.keys, i, key)
		nd.vals = insertAt(nd.vals, i, val)
		return t.finishInsert(id, nd)
	}
	ci := childIndex(nd, key)
	childSep, childNew, childSplit, err := t.insert(nd.children[ci], key, val)
	if err != nil {
		return nil, 0, false, err
	}
	if !childSplit {
		return nil, 0, false, nil
	}
	nd.keys = insertAt(nd.keys, ci, childSep)
	nd.children = insertAt(nd.children, ci+1, childNew)
	return t.finishInsert(id, nd)
}

// finishInsert writes nd back to page id, splitting first if it overflows.
func (t *Tree) finishInsert(id pager.PageID, nd *node) (sep []byte, newID pager.PageID, split bool, err error) {
	if nodeSize(nd) <= pager.PageSize {
		return nil, 0, false, t.writeNodeTo(id, nd)
	}
	mid := len(nd.keys) / 2
	var right *node
	if nd.leaf {
		right = &node{
			leaf: true,
			keys: append([][]byte(nil), nd.keys[mid:]...),
			vals: append([][]byte(nil), nd.vals[mid:]...),
			next: nd.next,
		}
		sep = right.keys[0]
		nd.keys = nd.keys[:mid]
		nd.vals = nd.vals[:mid]
	} else {
		sep = nd.keys[mid]
		right = &node{
			keys:     append([][]byte(nil), nd.keys[mid+1:]...),
			children: append([]pager.PageID(nil), nd.children[mid+1:]...),
		}
		nd.keys = nd.keys[:mid]
		nd.children = nd.children[:mid+1]
	}
	rp, err := t.pg.Allocate()
	if err != nil {
		return nil, 0, false, err
	}
	newID = rp.ID()
	if nd.leaf {
		nd.next = newID
	}
	writeNode(rp.Data(), right)
	rp.MarkDirty()
	rp.Release()
	if err := t.writeNodeTo(id, nd); err != nil {
		return nil, 0, false, err
	}
	return sep, newID, true, nil
}

// Entry is one key/value pair of a sorted run passed to InsertRun.
type Entry struct {
	Key, Val []byte
}

// InsertRun adds a run of entries whose keys are strictly ascending. It is
// equivalent to calling Insert once per entry but amortizes the descent,
// the node decodes/encodes and the meta-page sync over the whole run: a
// cursor remembers the path to the current leaf and its exclusive upper
// bound, so consecutive entries that land in the same leaf mutate it in
// memory and the node is written back once, when the cursor moves on. A
// run appended at the right edge of the tree (e.g. a time-ordered index)
// never re-descends except when a node splits.
//
// Like Insert, InsertRun must be serialized externally against all other
// tree calls. If an entry duplicates an existing key the run stops there
// with ErrDuplicateKey: earlier entries remain inserted and the tree stays
// structurally consistent (the engine discards the enclosing batch).
func (t *Tree) InsertRun(entries []Entry) error {
	for i, e := range entries {
		if len(e.Key) == 0 || len(e.Key) > MaxKey {
			return fmt.Errorf("btree: key length %d outside 1..%d", len(e.Key), MaxKey)
		}
		if len(e.Val) > MaxVal {
			return fmt.Errorf("btree: value length %d exceeds %d", len(e.Val), MaxVal)
		}
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
			return fmt.Errorf("btree: run keys not strictly ascending at entry %d", i)
		}
	}
	if len(entries) == 0 {
		return nil
	}
	c := runCursor{t: t}
	var insErr error
	for i := range entries {
		if insErr = c.insertOne(entries[i].Key, entries[i].Val); insErr != nil {
			break
		}
	}
	if err := c.flush(); err != nil && insErr == nil {
		insErr = err
	}
	if err := t.syncMeta(); err != nil && insErr == nil {
		insErr = err
	}
	return insErr
}

// runLevel is one level of a runCursor's root-to-leaf path.
type runLevel struct {
	id       pager.PageID
	nd       *node
	hi       []byte // exclusive upper bound on keys reachable through nd; nil = +inf
	childIdx int    // child taken during descent (internal nodes; -1 for the leaf)
	dirty    bool   // nd mutated in memory, not yet written back
}

// runCursor holds the descent path of an InsertRun between entries.
type runCursor struct {
	t     *Tree
	path  []runLevel
	valid bool
}

// flush writes every dirty path node back to its page and invalidates the
// cursor.
func (c *runCursor) flush() error {
	for i := len(c.path) - 1; i >= 0; i-- {
		lvl := &c.path[i]
		if lvl.dirty {
			if err := c.t.writeNodeTo(lvl.id, lvl.nd); err != nil {
				return err
			}
			lvl.dirty = false
		}
	}
	c.path = c.path[:0]
	c.valid = false
	return nil
}

// descend rebuilds the path from the root to the leaf covering key,
// recording each level's exclusive upper bound.
func (c *runCursor) descend(key []byte) error {
	t := c.t
	c.path = c.path[:0]
	id := t.root
	var hi []byte
	for {
		nd, err := t.readNodeMut(id)
		if err != nil {
			return err
		}
		c.path = append(c.path, runLevel{id: id, nd: nd, hi: hi, childIdx: -1})
		if nd.leaf {
			c.valid = true
			return nil
		}
		ci := childIndex(nd, key)
		c.path[len(c.path)-1].childIdx = ci
		if ci < len(nd.keys) {
			hi = nd.keys[ci]
		}
		id = nd.children[ci]
	}
}

// insertOne places one entry of the run, reusing the cached leaf while the
// ascending key stays under its upper bound.
func (c *runCursor) insertOne(key, val []byte) error {
	if c.valid {
		// Keys equal to an internal separator belong to the right sibling.
		if hi := c.path[len(c.path)-1].hi; hi != nil && bytes.Compare(key, hi) >= 0 {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	if !c.valid {
		if err := c.descend(key); err != nil {
			return err
		}
	}
	leaf := &c.path[len(c.path)-1]
	i := lowerBound(leaf.nd.keys, key)
	if i < len(leaf.nd.keys) && bytes.Equal(leaf.nd.keys[i], key) {
		return fmt.Errorf("%w: %x", ErrDuplicateKey, key)
	}
	leaf.nd.keys = insertAt(leaf.nd.keys, i, key)
	leaf.nd.vals = insertAt(leaf.nd.vals, i, val)
	leaf.dirty = true
	c.t.n++
	if nodeSize(leaf.nd) > pager.PageSize {
		return c.splitPath()
	}
	return nil
}

// splitPath resolves an overflowing leaf by the standard mid-split,
// cascading up the saved parent path (growing a new root if the cascade
// reaches it), then invalidates the cursor so the next entry re-descends.
func (c *runCursor) splitPath() error {
	t := c.t
	li := len(c.path) - 1
	for {
		lvl := &c.path[li]
		nd := lvl.nd
		mid := len(nd.keys) / 2
		var right *node
		var sep []byte
		if nd.leaf {
			right = &node{
				leaf: true,
				keys: append([][]byte(nil), nd.keys[mid:]...),
				vals: append([][]byte(nil), nd.vals[mid:]...),
				next: nd.next,
			}
			sep = right.keys[0]
			nd.keys = nd.keys[:mid]
			nd.vals = nd.vals[:mid]
		} else {
			sep = nd.keys[mid]
			right = &node{
				keys:     append([][]byte(nil), nd.keys[mid+1:]...),
				children: append([]pager.PageID(nil), nd.children[mid+1:]...),
			}
			nd.keys = nd.keys[:mid]
			nd.children = nd.children[:mid+1]
		}
		rp, err := t.pg.Allocate()
		if err != nil {
			return err
		}
		newID := rp.ID()
		if nd.leaf {
			nd.next = newID
		}
		writeNode(rp.Data(), right)
		rp.MarkDirty()
		rp.Release()
		if err := t.writeNodeTo(lvl.id, nd); err != nil {
			return err
		}
		lvl.dirty = false
		if li == 0 {
			rootPg, err := t.pg.Allocate()
			if err != nil {
				return err
			}
			writeNode(rootPg.Data(), &node{
				keys:     [][]byte{sep},
				children: []pager.PageID{lvl.id, newID},
			})
			rootPg.MarkDirty()
			t.root = rootPg.ID()
			rootPg.Release()
			break
		}
		parent := &c.path[li-1]
		ci := parent.childIdx
		parent.nd.keys = insertAt(parent.nd.keys, ci, sep)
		parent.nd.children = insertAt(parent.nd.children, ci+1, newID)
		parent.dirty = true
		if nodeSize(parent.nd) <= pager.PageSize {
			break
		}
		li--
	}
	return c.flush()
}

// Get returns the value for key, or ErrKeyNotFound.
func (t *Tree) Get(key []byte) ([]byte, error) {
	id := t.root
	for {
		nd, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		if nd.leaf {
			i := lowerBound(nd.keys, key)
			if i < len(nd.keys) && bytes.Equal(nd.keys[i], key) {
				return nd.vals[i], nil
			}
			return nil, ErrKeyNotFound
		}
		id = nd.children[childIndex(nd, key)]
	}
}

// Delete removes key's entry (lazy: no rebalancing).
func (t *Tree) Delete(key []byte) error {
	id := t.root
	for {
		nd, err := t.readNodeMut(id)
		if err != nil {
			return err
		}
		if !nd.leaf {
			id = nd.children[childIndex(nd, key)]
			continue
		}
		i := lowerBound(nd.keys, key)
		if i >= len(nd.keys) || !bytes.Equal(nd.keys[i], key) {
			return ErrKeyNotFound
		}
		nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
		nd.vals = append(nd.vals[:i], nd.vals[i+1:]...)
		if err := t.writeNodeTo(id, nd); err != nil {
			return err
		}
		t.n--
		return t.syncMeta()
	}
}

// Iterator walks entries in key order. It must not be used across
// concurrent tree modifications.
type Iterator struct {
	t    *Tree
	nd   *node
	i    int
	err  error
	done bool
}

// Seek positions an iterator at the first entry with key >= lo.
func (t *Tree) Seek(lo []byte) *Iterator {
	it := &Iterator{t: t}
	t.SeekInto(it, lo)
	return it
}

// SeekInto repositions an existing iterator at the first entry with
// key >= lo, reusing its allocation. Callers that scan several disjoint
// ranges in one pass (the fused union executor) reposition one iterator
// per range instead of allocating a fresh one per descent.
func (t *Tree) SeekInto(it *Iterator, lo []byte) {
	it.t = t
	it.nd = nil
	it.err = nil
	it.done = false
	id := t.root
	for {
		nd, err := t.readNode(id)
		if err != nil {
			it.err = err
			it.done = true
			return
		}
		if nd.leaf {
			it.nd = nd
			it.i = lowerBound(nd.keys, lo)
			it.skipEmptyLeaves()
			return
		}
		id = nd.children[childIndex(nd, lo)]
	}
}

// skipEmptyLeaves advances across exhausted leaf nodes.
func (it *Iterator) skipEmptyLeaves() {
	for it.i >= len(it.nd.keys) {
		if it.nd.next == 0 {
			it.done = true
			return
		}
		nd, err := it.t.readNode(it.nd.next)
		if err != nil {
			it.err = err
			it.done = true
			return
		}
		it.nd = nd
		it.i = 0
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return !it.done && it.err == nil }

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key; valid only while Valid().
func (it *Iterator) Key() []byte { return it.nd.keys[it.i] }

// Value returns the current value; valid only while Valid().
func (it *Iterator) Value() []byte { return it.nd.vals[it.i] }

// Next advances to the next entry.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.i++
	it.skipEmptyLeaves()
}

// ScanRange calls fn for every entry with lo <= key <= hi (inclusive
// bounds; hi nil means unbounded). fn returning false stops early.
func (t *Tree) ScanRange(lo, hi []byte, fn func(key, val []byte) (bool, error)) error {
	it := t.Seek(lo)
	for ; it.Valid(); it.Next() {
		if hi != nil && bytes.Compare(it.Key(), hi) > 0 {
			break
		}
		cont, err := fn(it.Key(), it.Value())
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return it.Err()
}

func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
