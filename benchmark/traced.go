package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"segdiff"
	"segdiff/internal/core"
	"segdiff/internal/extract"
	"segdiff/internal/feature"
	"segdiff/internal/naive"
	"segdiff/internal/segment"
	"segdiff/internal/server"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/timeseries"
)

const (
	// tracedBatches is how many hourly appends each write rung replays
	// on its fresh directory, after one unrecorded batch that creates the
	// sensors' schemas.
	tracedBatches = 36
	// tracedPasses is how many times each read rung replays the sample
	// after its warm pass. Rungs are separate executions, so their
	// difference carries both rungs' noise; on query-deep, where every
	// pass leaves the pools in another state, one pass left a rung longer
	// than the one above it by a tenth of the top rung.
	tracedPasses = 2
	// naiveEvery thins the read sample for the naive scan, whose cost
	// grows with the number of events, not of matches.
	naiveEvery = 3
	window     = 8 * time.Hour
)

// tracedRun is what the in-process replay measured, ready to be turned
// into per-layer metrics.
type tracedRun struct {
	rec     *recorder
	sensors int
	width   int   // sensors the collection really searches at once
	sample  []int // query indices replayed
	// replays is the sample, tracedPasses times over: every rung records
	// each of them once, so a parent and its child share a trace id.
	replays  []replay
	appended int // points per write rung, after the first batch
	// The core write rung's data-file traffic. The engine never steals:
	// table and index pages reach their files at the checkpoint Close
	// runs, so the totals cover the rung from open to close, first batch
	// included, over corePoints.
	dataBytes, dataSyncs int64
	corePoints           int

	prepareUS, planUS []float64 // sqlmini, one value per timed call
	filesPerSensor    int
	catalogBytes      int64 // of the drained directory's first sensor

	segmentNSPerPoint, pointsPerSegment       float64
	extractUSPerSegment, boundariesPerSegment float64
	cornersPerBoundary                        float64
	naiveMS, coreForNaiveMS                   []float64
}

type replay struct {
	q     int    // index into the query list
	trace string // trace id shared by the rungs of this replay
}

// countingTransport counts response body bytes at the client's edge.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func traceID(kind string, i int) string { return kind + strconv.Itoa(i) }

// searchPath is the request a client sends for q.
func searchPath(q query) string {
	v := url.Values{}
	v.Set("span", q.Span.String())
	v.Set("v", strconv.FormatFloat(q.V, 'g', -1, 64))
	if q.Jump {
		return "/v1/jumps?" + v.Encode()
	}
	return "/v1/drops?" + v.Encode()
}

func (q query) kind() feature.Kind {
	if q.Jump {
		return feature.Jump
	}
	return feature.Drop
}

// serveRecorded calls the server's handler directly and fails on a
// non-2xx status.
func serveRecorded(h http.Handler, req *http.Request) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return rec, fmt.Errorf("handler returned %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

// hosted is a collection served in-process: the same server package the
// child runs, on a loopback listener, in the benchmark's own address
// space so each layer can also be called directly.
type hosted struct {
	col *segdiff.Collection
	srv *server.Server
	cl  *segdiff.Client
	tr  *countingTransport
}

func host(dir string) (*hosted, error) {
	col, err := segdiff.OpenCollection(dir, segdiff.Options{Epsilon: epsilon, Window: window})
	if err != nil {
		return nil, err
	}
	srv := server.New(col, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("%w (and closing: %v)", err, col.Close())
	}
	tr := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return &hosted{
		col: col, srv: srv, tr: tr,
		cl: segdiff.NewClient(srv.URL(), &http.Client{Transport: tr}),
	}, nil
}

func (h *hosted) close(ctx context.Context) error {
	err := h.srv.Shutdown(ctx)
	if cerr := h.col.Close(); err == nil {
		err = cerr
	}
	return err
}

// openStores opens every sensor's store directly, on counted files.
func openStores(dir string, sensors []string, fc *fileCounter) ([]*core.Store, error) {
	stores := make([]*core.Store, 0, len(sensors))
	for _, name := range sensors {
		st, err := core.Open(filepath.Join(dir, name), core.Options{
			Epsilon: epsilon,
			Window:  int64(window / time.Second),
			DB:      sqlmini.Options{FileFactory: fc.open},
		})
		if err != nil {
			for _, s := range stores {
				_ = s.Close() // already failing; the open error is the one to report
			}
			return nil, err
		}
		stores = append(stores, st)
	}
	return stores, nil
}

func closeStores(stores []*core.Store) error {
	var first error
	for _, st := range stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// searchArgs binds a search statement's placeholders, which alternate
// T and V through every branch of the union.
func searchArgs(sql string, q query) []sqlmini.Value {
	n := strings.Count(sql, "?")
	args := make([]sqlmini.Value, 0, n)
	for i := 0; i < n; i += 2 {
		args = append(args, sqlmini.Int(int64(q.Span/time.Second)), sqlmini.Real(q.V))
	}
	return args
}

// runTraced replays a fixed sample of the served run's work one layer at
// a time: every 10th query against the drained directory, and the first
// hourly appends on fresh directories, once per rung after a warm pass.
func runTraced(ctx context.Context, e *env, c *corpus, qs []query, r *servedRun) (*tracedRun, error) {
	t := &tracedRun{rec: newRecorder(), sensors: len(c.sensors)}
	t.width = t.sensors
	if p := runtime.GOMAXPROCS(0); p < t.width {
		t.width = p
	}
	for i := range r.sampled {
		t.sample = append(t.sample, i)
	}
	sort.Ints(t.sample)
	for pass := 0; pass < tracedPasses; pass++ {
		for _, i := range t.sample {
			t.replays = append(t.replays, replay{q: i, trace: fmt.Sprintf("q%d.%d", i, pass)})
		}
	}

	if err := t.readRungs(ctx, c, qs, r.dir, r.lastT); err != nil {
		return nil, fmt.Errorf("benchmark: traced reads: %w", err)
	}
	if err := t.writeRungs(ctx, e, c); err != nil {
		return nil, fmt.Errorf("benchmark: traced writes: %w", err)
	}
	t.pipelineRungs(c)
	t.rec.link()
	return t, nil
}

func (t *tracedRun) readRungs(ctx context.Context, c *corpus, qs []query, dir string, lastT int64) error {
	h, err := host(dir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = h.close(ctx) // error path; the first error is reported
		}
	}()
	for _, i := range t.sample { // warm pass
		if _, err := runQuery(ctx, h.cl, qs[i]); err != nil {
			return err
		}
	}
	for _, rp := range t.replays {
		i := rp.q
		before := h.tr.bytes.Load()
		err := t.rec.record(rp.trace, "client.search", "", func() (map[string]float64, error) {
			res, err := runQuery(ctx, h.cl, qs[i])
			return map[string]float64{"rows": float64(countRows(res)), "response_bytes": float64(h.tr.bytes.Load() - before)}, err
		})
		if err != nil {
			return err
		}
	}
	for _, rp := range t.replays {
		i := rp.q
		req := httptest.NewRequest(http.MethodGet, searchPath(qs[i]), nil).WithContext(ctx)
		err := t.rec.record(rp.trace, "server.search", "", func() (map[string]float64, error) {
			rec, err := serveRecorded(h.srv.Handler(), req)
			return map[string]float64{"response_bytes": float64(rec.Body.Len())}, err
		})
		if err != nil {
			return err
		}
	}
	for _, rp := range t.replays {
		i := rp.q
		err := t.rec.record(rp.trace, "collection.search", "", func() (map[string]float64, error) {
			res, err := searchCollection(ctx, h.col, qs[i])
			return map[string]float64{"rows": float64(countRows(res))}, err
		})
		if err != nil {
			return err
		}
	}
	closed = true
	if err := h.close(ctx); err != nil {
		return err
	}

	// Below the collection: each sensor's store, opened directly.
	fc := &fileCounter{}
	stores, err := openStores(dir, c.sensors, fc)
	if err != nil {
		return err
	}
	defer closeStores(stores) //nolint:errcheck // read-only use; nothing to lose
	if ents, err := os.ReadDir(filepath.Join(dir, c.sensors[0])); err == nil {
		t.filesPerSensor = len(ents)
	}
	if info, err := os.Stat(filepath.Join(dir, c.sensors[0], "catalog.json")); err == nil {
		t.catalogBytes = info.Size()
	}
	for _, i := range t.sample { // warm pass
		for _, st := range stores {
			if _, err := st.SearchContext(ctx, qs[i].kind(), int64(qs[i].Span/time.Second), qs[i].V, sqlmini.PlanAuto); err != nil {
				return err
			}
		}
	}
	for _, rp := range t.replays {
		i := rp.q
		q := qs[i]
		for si, st := range stores {
			err := t.rec.record(rp.trace, "core.search", c.sensors[si], func() (map[string]float64, error) {
				before := st.DB().CacheStats()
				ms, err := st.SearchContext(ctx, q.kind(), int64(q.Span/time.Second), q.V, sqlmini.PlanAuto)
				after := st.DB().CacheStats()
				return map[string]float64{
					"rows":       float64(len(ms)),
					"pages_read": float64(after.Reads - before.Reads),
					"pages_hit":  float64(after.Hits - before.Hits),
					"evictions":  float64(after.Evictions - before.Evictions),
				}, err
			})
			if err != nil {
				return err
			}
		}
	}
	// The engine under core: the SQL text and per-unit counters come
	// from the store's own EXPLAIN ANALYZE; the span times the prepared
	// statement the way core runs it.
	stmts := map[string]*sqlmini.Stmt{}
	for _, rp := range t.replays {
		i := rp.q
		q := qs[i]
		for si, st := range stores {
			tr, err := st.TraceSearch(q.kind(), int64(q.Span/time.Second), q.V, sqlmini.PlanAuto)
			if err != nil {
				return err
			}
			counts := map[string]float64{"scan_units": float64(len(tr.Nodes)), "analyze_wall_ms": float64(tr.WallNS) / 1e6}
			for _, n := range tr.Nodes {
				counts["rows_examined"] += float64(n.RowsExamined)
				counts["rows_returned"] += float64(n.RowsReturned)
				counts["zone_skipped_pages"] += float64(n.ZoneSkipped)
				counts["scan_ms"] += float64(n.WallNS) / 1e6
			}
			key := c.sensors[si] + tr.SQL
			stmt := stmts[key]
			if stmt == nil {
				for rep := 0; rep < 5; rep++ {
					t0 := time.Now()
					stmt, err = st.DB().Prepare(tr.SQL)
					if err != nil {
						return err
					}
					t.prepareUS = append(t.prepareUS, float64(time.Since(t0).Nanoseconds())/1e3)
				}
				stmts[key] = stmt
			}
			args := searchArgs(tr.SQL, q)
			t0 := time.Now()
			if _, err := st.DB().Query("EXPLAIN "+tr.SQL, args...); err != nil {
				return err
			}
			t.planUS = append(t.planUS, float64(time.Since(t0).Nanoseconds())/1e3)
			err = t.rec.record(rp.trace, "sqlmini.query", c.sensors[si], func() (map[string]float64, error) {
				rows, err := stmt.QueryModeContext(ctx, sqlmini.PlanAuto, args...)
				if err == nil {
					counts["rows"] = float64(rows.Len())
				}
				return counts, err
			})
			if err != nil {
				return err
			}
		}
	}

	// The naive scan of the first sensor's points, against the store's
	// search for the same queries.
	ingested := c.series[0].Slice(corpusStart, lastT)
	for k, i := range t.sample {
		if k%naiveEvery != 0 {
			continue
		}
		q := qs[i]
		T := int64(q.Span / time.Second)
		t0 := time.Now()
		if q.Jump {
			_, err = naive.Jumps(ingested, T, q.V)
		} else {
			_, err = naive.Drops(ingested, T, q.V)
		}
		if err != nil {
			return err
		}
		t.naiveMS = append(t.naiveMS, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := stores[0].SearchContext(ctx, q.kind(), T, q.V, sqlmini.PlanAuto); err != nil {
			return err
		}
		t.coreForNaiveMS = append(t.coreForNaiveMS, ms(time.Since(t0)))
	}
	return nil
}

func (t *tracedRun) writeRungs(ctx context.Context, e *env, c *corpus) error {
	batches := c.streamBatches(tracedBatches + 1)
	for _, b := range batches[1:] {
		for _, sb := range b {
			t.appended += len(sb.Points)
		}
	}
	// Each rung gets a directory nothing has written to; all of them go
	// when the rungs are done.
	base, err := os.MkdirTemp(e.scratch, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	fresh := func(name string) string { return filepath.Join(base, name) }

	// client → in-process server, and the handler called directly, each
	// on its own fresh directory.
	for _, rungName := range []string{"client.append", "server.append", "collection.append_all"} {
		h, err := host(fresh(rungName))
		if err != nil {
			return err
		}
		for i, b := range batches {
			b := b
			call := func() (map[string]float64, error) {
				switch rungName {
				case "client.append":
					_, _, err := h.cl.Append(ctx, b)
					return nil, err
				case "server.append":
					body, err := json.Marshal(b)
					if err != nil {
						return nil, err
					}
					req := httptest.NewRequest(http.MethodPost, "/v1/append", bytes.NewReader(body)).WithContext(ctx)
					_, err = serveRecorded(h.srv.Handler(), req)
					return map[string]float64{"request_bytes": float64(len(body))}, err
				default:
					return nil, h.col.AppendAll(b)
				}
			}
			if i == 0 { // creates every sensor's files and schema
				_, err = call()
			} else {
				err = t.rec.record(traceID("a", i), rungName, "", call)
			}
			if err != nil {
				_ = h.close(ctx) // the append error is the one to report
				return err
			}
		}
		if err := h.close(ctx); err != nil {
			return err
		}
	}

	// core: one store per sensor on counted files, sensors one after
	// another so every count belongs to one store.
	fc := &fileCounter{}
	stores, err := openStores(fresh("core"), c.sensors, fc)
	if err != nil {
		return err
	}
	for i, b := range batches {
		for si, sb := range b {
			st := stores[si]
			appendPts := func() (map[string]float64, error) {
				for _, p := range sb.Points {
					if err := st.Append(timeseries.Point{T: p.Time, V: p.Value}); err != nil {
						return nil, err
					}
				}
				return map[string]float64{"points": float64(len(sb.Points))}, nil
			}
			catalog := filepath.Join(fresh("core"), sb.Sensor, "catalog.json")
			commit := func() (map[string]float64, error) {
				walB, walS, walNS := fc.wal.writeBytes.Load(), fc.wal.syncs.Load(), fc.wal.syncNS.Load()
				m0 := st.Metrics()
				rows0 := storeRows(st)
				mod0 := modTime(catalog)
				if err := st.Sync(); err != nil {
					return nil, err
				}
				m1 := st.Metrics()
				counts := map[string]float64{
					"wal_bytes":        float64(fc.wal.writeBytes.Load() - walB),
					"wal_fsyncs":       float64(fc.wal.syncs.Load() - walS),
					"wal_fsync_ms":     float64(fc.wal.syncNS.Load()-walNS) / 1e6,
					"wal_commits":      float64(m1.Counter("wal.commits") - m0.Counter("wal.commits")),
					"wal_pages_logged": float64(m1.Counter("wal.pages_logged") - m0.Counter("wal.pages_logged")),
					"rows":             float64(storeRows(st) - rows0),
				}
				if info, err := os.Stat(catalog); err == nil && info.ModTime() != mod0 {
					counts["catalog_rewrite_bytes"] = float64(info.Size())
				}
				return counts, nil
			}
			if i == 0 {
				if _, err = appendPts(); err == nil {
					_, err = commit()
				}
			} else {
				err = t.rec.record(traceID("a", i), "core.append", sb.Sensor, appendPts)
				if err == nil {
					err = t.rec.record(traceID("a", i), "core.sync", sb.Sensor, commit)
				}
			}
			if err != nil {
				_ = closeStores(stores) // the append error is the one to report
				return err
			}
		}
	}
	err = closeStores(stores)
	t.dataBytes, t.dataSyncs = fc.data.writeBytes.Load(), fc.data.syncs.Load()
	for _, sb := range batches[0] {
		t.corePoints += len(sb.Points)
	}
	t.corePoints += t.appended
	return err
}

func modTime(path string) time.Time {
	info, err := os.Stat(path)
	if err != nil {
		return time.Time{}
	}
	return info.ModTime()
}

// storeRows counts the rows of every table the ingest path writes.
func storeRows(st *core.Store) int {
	n := 0
	for _, tbl := range st.DB().Tables() {
		if c, err := st.DB().RowCount(tbl); err == nil {
			n += c
		}
	}
	return n
}

// pipelineRungs pushes the first sensor's whole series through a
// standalone segmenter and extractor with sinks that keep nothing, so
// the two stages of the ingest pipeline are timed without the store.
func (t *tracedRun) pipelineRungs(c *corpus) {
	pts := c.series[0].Points()
	var segs []segment.Segment
	sg, _ := segment.NewSegmenter(epsilon, func(g segment.Segment) error {
		segs = append(segs, g)
		return nil
	})
	t0 := time.Now()
	for _, p := range pts {
		_ = sg.Push(p) // the series is valid by construction
	}
	t.segmentNSPerPoint = float64(time.Since(t0).Nanoseconds()) / float64(len(pts))
	if len(segs) == 0 {
		return
	}
	t.pointsPerSegment = float64(len(pts)) / float64(len(segs))

	ex, _ := extract.New(epsilon, int64(window/time.Second), func(feature.Boundary) error { return nil })
	t0 = time.Now()
	for _, g := range segs {
		_ = ex.Push(g) // segments come from the segmenter, in order
	}
	t.extractUSPerSegment = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(segs))
	st := ex.Stats()
	t.boundariesPerSegment = float64(st.Boundaries) / float64(st.Segments)
	t.cornersPerBoundary = st.AverageCorners()
}
