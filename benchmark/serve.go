package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"segdiff"
	"segdiff/internal/obs"
)

// workload is one served traffic mix. Every workload has the same three
// phases — bulk load, hourly appends, queries — and differs in how much
// of each it does and over what shape of corpus, so every end-to-end
// metric is defined on every workload and a change is judged on all four.
type workload struct {
	name, why string
	sensors   int
	bulkHours int // loaded in 30-day requests during set-up
	appends   int // hourly multi-sensor append requests, at scale 1
	// fillHours of further data are bulk-loaded, untimed, between the
	// appends and the queries, so the queries run over a store of the same
	// span as the other workloads': how many rows a query returns swings
	// from seed to seed by a sixth over three weeks of data, by a tenth
	// over two months.
	fillHours int
	queries   int // measured queries, at scale 1
	// period > 0 makes the phases concurrent: the writer posts one append
	// per period on a schedule while the reader cycles the query list
	// until the writer is done.
	period time.Duration
	// setupReps is how many times the bulk load is repeated on fresh
	// directories; setup_s is their median.
	setupReps int
	// restartCheck restarts segdiffd on the drained directory and asks
	// the check queries again.
	restartCheck bool
}

// referenceSeconds is the --seconds value the op counts below are sized
// for on the seed commit and this sandbox (two cores): each workload
// then measures for about that long. Other values scale the counts; the
// work stays fixed by count so rows, bytes and fsyncs repeat exactly.
const referenceSeconds = 15

var workloads = []workload{
	{
		name:    "query-wide",
		why:     "8 sensors x 60 days, every file fits its pool: time goes to server encode, collection fan-out and per-sensor parse/plan/scan; pager misses do nothing",
		sensors: 8, bulkHours: 60 * 24, appends: 150, queries: 400, setupReps: 2,
	},
	{
		name:    "query-deep",
		why:     "1 sensor x 540 days, feature and index files larger than their 4 MiB pools: time moves to scan, heap fetch and pager miss/evict; fan-out does nothing",
		sensors: 1, bulkHours: 540 * 24, appends: 120, queries: 300, setupReps: 1,
	},
	{
		name:    "ingest-stream",
		why:     "store holding only its first hour, one-hour x 8-sensor appends: per-commit fixed cost (8 fsyncs, WAL stage, catalog rewrite, 19 index applies) dominates; queries follow an untimed top-up to 60 days",
		sensors: 8, bulkHours: 1, appends: 500, fillHours: 39 * 24, queries: 300, setupReps: 9, restartCheck: true,
	},
	{
		name:    "mixed",
		why:     "8 sensors x 60 days with a scheduled hourly writer beside a closed-loop reader: reads and writes share each sensor's engine lock, the pools and two cores",
		sensors: 8, bulkHours: 60 * 24, appends: 120, queries: 400, period: 150 * time.Millisecond, setupReps: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled sizes the op counts for a --seconds value.
func (w workload) scaled(seconds int) workload {
	scale := func(n int) int {
		n = (n*seconds + referenceSeconds/2) / referenceSeconds
		if n < 1 {
			n = 1
		}
		return n
	}
	w.appends = scale(w.appends)
	w.queries = scale(w.queries)
	return w
}

// warmup is how many queries run unmeasured before the measured pass,
// so pools, lazily opened sensors and the connection are warm.
func (w workload) warmup() int { return (w.queries + 4) / 5 }

// sampleEvery picks the queries whose full responses are kept for the
// output checks and replayed by the traced run.
const sampleEvery = 10

// servedRun is everything one served (untraced) run measured.
type servedRun struct {
	dir string // the drained collection directory

	setupS []float64 // one per bulk-load repetition

	appendMS     []float64 // Client.Append wall; from due time when scheduled
	appendLateMS []float64 // scheduled writer only: start minus due time
	appendBusy   time.Duration
	appendCPU    time.Duration
	appendWrite  int64 // child write_bytes delta over the append phase
	appendPoints int   // acked
	pointsSent   int

	queryMS   []float64
	queryRows []int
	queryWall time.Duration
	queryCPU  time.Duration

	sampled   map[int][]segdiff.SensorMatches // query index -> wire response
	sampledMS map[int]float64                 // and its latency
	lastT     int64                           // newest timestamp the child acked

	diskBytes  int64
	rssPeakMiB float64
	openFDs    int
	server     obs.Snapshot // the child's /metrics at the end of the measured pass

	totalPoints int
	// The writer counts into writes, the reader into reads; in the
	// concurrent phase each goroutine touches only its own.
	writes, reads tally
}

// tally counts operations and keeps the first failures for the report.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (r *servedRun) attempted() int { return r.writes.attempted + r.reads.attempted }
func (r *servedRun) failed() int    { return r.writes.failed + r.reads.failed }
func (r *servedRun) failures() []string {
	return append(append([]string(nil), r.writes.failures...), r.reads.failures...)
}

// env is what a run needs from its surroundings.
type env struct {
	root    string // module root
	bin     string // segdiffd binary
	scratch string // this process's data directory, removed at exit
}

func newEnv() (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, scratch: scratch}, nil
}

func (e *env) close() error { return os.RemoveAll(e.scratch) }

// newClient returns a client on its own connection pool, so the reader
// and the writer each keep one connection and never share it.
func newClient(url string) *segdiff.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return segdiff.NewClient(url, &http.Client{Transport: tr})
}

// runQuery issues one query through the client.
func runQuery(ctx context.Context, cl *segdiff.Client, q query) ([]segdiff.SensorMatches, error) {
	if q.Jump {
		return cl.Jumps(ctx, q.Span, q.V)
	}
	return cl.Drops(ctx, q.Span, q.V)
}

func countRows(res []segdiff.SensorMatches) int {
	n := 0
	for _, sm := range res {
		n += len(sm.Matches)
	}
	return n
}

// bulkLoad appends [from, to) in 30-day requests and returns the points
// acked. Any failure ends the run: the later phases need the data.
func bulkLoad(ctx context.Context, cl *segdiff.Client, c *corpus, from, to int64) (int, error) {
	total := 0
	for i, chunk := range c.chunks(from, to) {
		want := 0
		for _, b := range chunk {
			want += len(b.Points)
		}
		if _, got, err := cl.Append(ctx, chunk); err != nil {
			return total, fmt.Errorf("benchmark: bulk load request %d: %w", i, err)
		} else if got != want {
			return total, fmt.Errorf("benchmark: bulk load request %d: acked %d of %d points", i, got, want)
		}
		total += want
	}
	return total, nil
}

// setup starts segdiffd on a fresh directory and bulk-loads the corpus.
// It returns the running child and the seconds from process start to the
// last request's ack.
func setup(ctx context.Context, e *env, c *corpus, dir string) (*child, float64, error) {
	start := time.Now()
	ch, err := startChild(ctx, e.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	if _, err := bulkLoad(ctx, newClient(ch.url), c, corpusStart, c.bulkEnd); err != nil {
		ch.kill()
		return nil, 0, err
	}
	return ch, time.Since(start).Seconds(), nil
}

// runServed drives one workload against a segdiffd child process and
// returns what it measured. The child is drained before it returns; the
// collection directory stays on disk for the checks and the traced run.
func runServed(ctx context.Context, e *env, w workload, c *corpus, qs []query) (*servedRun, error) {
	r := &servedRun{sampled: map[int][]segdiff.SensorMatches{}, sampledMS: map[int]float64{}}

	// Set-up, repeated on fresh directories; the last one is kept.
	var ch *child
	for rep := 0; rep < w.setupReps; rep++ {
		if ch != nil {
			if err := ch.drain(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, err
			}
		}
		r.dir = filepath.Join(e.scratch, fmt.Sprintf("%s-%d", w.name, rep))
		var secs float64
		var err error
		ch, secs, err = setup(ctx, e, c, r.dir)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, secs)
	}
	killOnErr := true
	defer func() {
		if killOnErr {
			ch.kill()
		}
	}()
	r.totalPoints = c.points(corpusStart, c.bulkEnd)
	reader := newClient(ch.url)
	writer := newClient(ch.url)
	batches := c.streamBatches(w.appends)
	streamEnd := c.bulkEnd + int64(len(batches))*hour

	doAppend := func(i int, due time.Time) {
		want := 0
		for _, b := range batches[i] {
			want += len(b.Points)
		}
		r.writes.attempted++
		r.pointsSent += want
		t0 := time.Now()
		_, got, err := writer.Append(ctx, batches[i])
		t1 := time.Now()
		if err != nil {
			r.writes.fail("append %d: %v", i, err)
			return
		}
		if got != want {
			r.writes.fail("append %d: acked %d of %d points", i, got, want)
		}
		r.appendPoints += got
		r.appendBusy += t1.Sub(t0)
		if due.IsZero() {
			due = t0
		} else {
			r.appendLateMS = append(r.appendLateMS, ms(t0.Sub(due)))
		}
		r.appendMS = append(r.appendMS, ms(t1.Sub(due)))
	}
	doQuery := func(i int, measured bool) {
		q := qs[i%len(qs)]
		t0 := time.Now()
		res, err := runQuery(ctx, reader, q)
		d := time.Since(t0)
		if measured {
			r.reads.attempted++
		}
		if err != nil {
			r.reads.fail("query %d (%s): %v", i, q, err)
		}
		if err != nil || !measured {
			return
		}
		r.queryMS = append(r.queryMS, ms(d))
		r.queryRows = append(r.queryRows, countRows(res))
		if i < len(qs) && i%sampleEvery == 0 {
			r.sampled[i] = res
			r.sampledMS[i] = ms(d)
		}
	}

	if w.period == 0 {
		// Appends, then queries, each alone on the machine.
		p0, err := ch.sample()
		if err != nil {
			return nil, err
		}
		for i := range batches {
			doAppend(i, time.Time{})
		}
		p1, err := ch.sample()
		if err != nil {
			return nil, err
		}
		r.appendCPU, r.appendWrite = p1.cpu-p0.cpu, p1.writeBytes-p0.writeBytes

		filled, err := bulkLoad(ctx, writer, c, streamEnd, streamEnd+int64(w.fillHours)*hour)
		if err != nil {
			return nil, err
		}
		r.totalPoints += filled
		streamEnd += int64(w.fillHours) * hour

		for i := 0; i < w.warmup(); i++ {
			doQuery(i, false)
		}
		p2, err := ch.sample()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < w.queries; i++ {
			doQuery(i, true)
		}
		r.queryWall = time.Since(t0)
		p3, err := ch.sample()
		if err != nil {
			return nil, err
		}
		r.queryCPU = p3.cpu - p2.cpu
	} else {
		for i := 0; i < w.warmup(); i++ {
			doQuery(i, false)
		}
		p0, err := ch.sample()
		if err != nil {
			return nil, err
		}
		var writerDone atomic.Bool
		readerDone := make(chan struct{})
		t0 := time.Now()
		go func() {
			defer close(readerDone)
			for i := 0; !writerDone.Load(); i++ {
				doQuery(i, true)
			}
			r.queryWall = time.Since(t0)
		}()
		for i := range batches {
			due := t0.Add(time.Duration(i) * w.period)
			time.Sleep(time.Until(due))
			doAppend(i, due)
		}
		writerDone.Store(true)
		<-readerDone
		p1, err := ch.sample()
		if err != nil {
			return nil, err
		}
		// One process did both jobs at once; its CPU cannot be split, so
		// both per-op CPU metrics share this numerator on this workload.
		r.appendCPU, r.queryCPU = p1.cpu-p0.cpu, p1.cpu-p0.cpu
		r.appendWrite = p1.writeBytes - p0.writeBytes
	}
	r.totalPoints += r.appendPoints
	r.lastT = c.lastBefore(streamEnd)

	var err error
	if r.openFDs, err = ch.openFDs(); err != nil {
		return nil, err
	}
	if r.rssPeakMiB, err = ch.rssPeakMiB(); err != nil {
		return nil, err
	}
	if r.server, err = ch.serverMetrics(ctx); err != nil {
		return nil, err
	}
	killOnErr = false
	if err := ch.drain(); err != nil {
		return nil, err
	}
	if r.diskBytes, err = dirBytes(r.dir); err != nil {
		return nil, err
	}
	return r, nil
}

// restartAndAsk starts segdiffd again on a drained directory, repeats
// the sampled queries and drains it. The answers must be what an
// in-process open of the same directory gives (checked by the caller).
func restartAndAsk(ctx context.Context, e *env, dir string, qs []query, idx []int) (map[int][]segdiff.SensorMatches, error) {
	ch, err := startChild(ctx, e.bin, dir)
	if err != nil {
		return nil, err
	}
	cl := newClient(ch.url)
	out := map[int][]segdiff.SensorMatches{}
	var errs []error
	for _, i := range idx {
		res, err := runQuery(ctx, cl, qs[i])
		if err != nil {
			errs = append(errs, fmt.Errorf("after restart, query %d (%s): %w", i, qs[i], err))
			continue
		}
		out[i] = res
	}
	errs = append(errs, ch.drain())
	return out, errors.Join(errs...)
}
