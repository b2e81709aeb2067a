package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"segdiff/internal/extract"
	"segdiff/internal/feature"
	"segdiff/internal/segment"
	"segdiff/internal/smooth"
	"segdiff/internal/storage/btree"
	"segdiff/internal/storage/heap"
	"segdiff/internal/storage/keyenc"
	"segdiff/internal/storage/pager"
	"segdiff/internal/storage/wal"
	"segdiff/internal/timeseries"
)

// microEnv is what the micro rows run on: one sensor's store directory
// (drained; its files are copied, never opened in place), that sensor's
// points, and a directory for the copies.
type microEnv struct {
	storeDir string
	scratch  string
	series   *timeseries.Series
}

// microRow is one single-layer benchmark. The same functions back
// "go test -bench ./benchmark" (micro_test.go) and the btree./heap./
// keyenc./wal.commit_us/smooth. rows of the traced run.
type microRow struct {
	name string
	fn   func(*microEnv, *testing.B)
}

var microRows = []microRow{
	{"SegmenterPush", (*microEnv).segmenterPush},
	{"ExtractorPush", (*microEnv).extractorPush},
	{"KeyencEncode", (*microEnv).keyencEncode},
	{"KeyencDecode", (*microEnv).keyencDecode},
	{"BtreeSeek", (*microEnv).btreeSeek},
	{"BtreeNext", (*microEnv).btreeNext},
	{"HeapFetch", (*microEnv).heapFetch},
	{"WALCommit", (*microEnv).walCommit},
	{"SmoothRobust", (*microEnv).smoothRobust},
}

// sink keeps results alive so the compiler cannot drop the measured call.
var sink int

func (m *microEnv) segmenterPush(b *testing.B) {
	pts := m.series.Points()
	span := m.series.End() - m.series.Start() + 300
	sg, err := segment.NewSegmenter(epsilon, func(segment.Segment) error { sink++; return nil })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		p.T += int64(i/len(pts)) * span // replays stay in time order
		if err := sg.Push(p); err != nil {
			b.Fatal(err)
		}
	}
}

func (m *microEnv) extractorPush(b *testing.B) {
	segs, err := segment.Series(m.series, epsilon)
	if err != nil {
		b.Fatal(err)
	}
	span := m.series.End() - m.series.Start()
	ex, err := extract.New(epsilon, int64(window.Seconds()), func(feature.Boundary) error { sink++; return nil })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := segs[i%len(segs)]
		off := int64(i/len(segs)) * span
		g.Ts, g.Te = g.Ts+off, g.Te+off
		if err := ex.Push(g); err != nil {
			b.Fatal(err)
		}
	}
}

func (m *microEnv) keyencEncode(b *testing.B) {
	pts := m.series.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		sink += len(keyenc.Encode(keyenc.IntValue(p.T), keyenc.FloatValue(p.V)))
	}
}

func (m *microEnv) keyencDecode(b *testing.B) {
	pts := m.series.Points()
	keys := make([][]byte, 1024)
	for i := range keys {
		p := pts[i%len(pts)]
		keys[i] = keyenc.Encode(keyenc.IntValue(p.T), keyenc.FloatValue(p.V))
	}
	var dst []keyenc.Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = keyenc.DecodeInto(keys[i%len(keys)], dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	sink += len(dst)
}

// copyOf copies one of the store's files into the scratch directory and
// opens the copy behind a default-capacity pool.
func (m *microEnv) copyOf(b *testing.B, name string) *pager.Pager {
	src, err := os.Open(filepath.Join(m.storeDir, name))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = src.Close() }() // opened read-only
	dstPath := filepath.Join(m.scratch, fmt.Sprintf("micro-%d-%s", b.N, name))
	dst, err := os.Create(dstPath)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		b.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := pager.OpenOSFile(dstPath)
	if err != nil {
		b.Fatal(err)
	}
	pg, err := pager.New(f, pager.DefaultCapacity)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = pg.Close() // a read-only copy
		_ = os.Remove(dstPath)
	})
	return pg
}

// cornerIndex is the first-corner point-query index of the two-corner
// drop table, the index most searches descend.
const cornerIndex = "i_dropf2_c1.idx"

// seekKeys spreads probe keys over the index's key space: dt over the
// window, dv over the drop range.
func seekKeys() [][]byte {
	keys := make([][]byte, 256)
	for i := range keys {
		dt := int64(300 + (i*28500/len(keys))/300*300)
		dv := -float64(i%12) - 0.5
		keys[i] = keyenc.Encode(keyenc.IntValue(dt), keyenc.FloatValue(dv))
	}
	return keys
}

func (m *microEnv) btreeSeek(b *testing.B) {
	tree, err := btree.Open(m.copyOf(b, cornerIndex))
	if err != nil {
		b.Fatal(err)
	}
	keys := seekKeys()
	var it btree.Iterator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.SeekInto(&it, keys[i%len(keys)])
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func (m *microEnv) btreeNext(b *testing.B) {
	tree, err := btree.Open(m.copyOf(b, cornerIndex))
	if err != nil {
		b.Fatal(err)
	}
	it := tree.Seek(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !it.Valid() {
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
			tree.SeekInto(it, nil)
		}
		sink += len(it.Key())
		it.Next()
	}
}

func (m *microEnv) heapFetch(b *testing.B) {
	h, err := heap.Open(m.copyOf(b, "t_dropf2.tbl"))
	if err != nil {
		b.Fatal(err)
	}
	var rids []heap.RID
	err = h.Scan(func(rid heap.RID, _ []byte) (bool, error) {
		rids = append(rids, rid)
		return len(rids) < 1<<16, nil
	})
	if err != nil || len(rids) == 0 {
		b.Fatalf("no heap records to fetch (err=%v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride coprime to the count visits records out of page order.
		rec, err := h.View(rids[(i*7919)%len(rids)])
		if err != nil {
			b.Fatal(err)
		}
		sink += len(rec)
	}
}

func (m *microEnv) walCommit(b *testing.B) {
	path := filepath.Join(m.scratch, fmt.Sprintf("micro-%d-wal.log", b.N))
	lg, err := wal.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = lg.Close() // scratch log, removed next
		_ = os.Remove(path)
	})
	page := make([]byte, pager.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lg.Stage(1, uint32(i%64), page); err != nil {
			b.Fatal(err)
		}
		if err := lg.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// smoothPoints is the length of the series one SmoothRobust op smooths:
// two days of 5-minute samples.
const smoothPoints = 2 * 288

func (m *microEnv) smoothRobust(b *testing.B) {
	twoDays := m.series.Head(smoothPoints)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm, err := smooth.Robust(twoDays, smooth.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sink += sm.Len()
	}
}

// microResult is one row as the traced run reports it.
type microResult struct {
	nsPerOp     float64
	allocsPerOp float64
	n           int
}

// microBenchtime keeps the nine rows together near a second; the rows
// explain ladder numbers, they are not end-to-end metrics.
const microBenchtime = "100ms"

// runMicro runs every micro row through testing.Benchmark.
func runMicro(m *microEnv) (map[string]microResult, error) {
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		return nil, errors.New("benchmark: testing.Init has not registered -test.benchtime")
	}
	prev := bt.Value.String()
	if err := bt.Value.Set(microBenchtime); err != nil {
		return nil, err
	}
	defer bt.Value.Set(prev) //nolint:errcheck // restoring a value the flag produced
	out := map[string]microResult{}
	for _, row := range microRows {
		row := row
		res := testing.Benchmark(func(b *testing.B) { row.fn(m, b) })
		if res.N == 0 {
			return nil, fmt.Errorf("benchmark: micro row %s failed", row.name)
		}
		out[row.name] = microResult{
			nsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			allocsPerOp: float64(res.MemAllocs) / float64(res.N),
			n:           res.N,
		}
	}
	return out, nil
}
