package main

import (
	"fmt"
	"math"
	"strings"
)

// measured is one metric's value in one run, with the number of samples
// behind it (1 for a count read once).
type measured struct {
	Value float64
	N     int
}

type values map[string]measured

func (v values) set(name string, x float64, n int) { v[name] = measured{Value: x, N: n} }

// inOrder checks that every metric of specs has a finite value and
// returns them in table order.
func (v values) inOrder(specs []metricSpec) ([]measured, error) {
	out := make([]measured, len(specs))
	for i, s := range specs {
		m, ok := v[s.Name]
		if !ok {
			return nil, fmt.Errorf("benchmark: metric %s was not measured", s.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("benchmark: metric %s is %v (n=%d)", s.Name, m.Value, m.N)
		}
		out[i] = m
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues derives the end-to-end metrics from the served run.
func endToEndValues(r *servedRun) values {
	v := values{}
	nq, na := len(r.queryMS), len(r.appendMS)
	v.set("setup_s", median(r.setupS), len(r.setupS))
	v.set("query_p50_ms", percentile(r.queryMS, 50), nq)
	v.set("query_p95_ms", percentile(r.queryMS, 95), nq)
	v.set("query_qps", ratio(float64(nq), r.queryWall.Seconds()), nq)
	v.set("query_cpu_ms", ratio(ms(r.queryCPU), float64(nq)), nq)
	v.set("ingest_points_per_s", ratio(float64(r.appendPoints), r.appendBusy.Seconds()), na)
	v.set("append_p50_ms", percentile(r.appendMS, 50), na)
	v.set("append_p90_ms", percentile(r.appendMS, 90), na)
	v.set("ingest_cpu_us_per_point", ratio(float64(r.appendCPU.Microseconds()), float64(r.appendPoints)), na)
	v.set("write_bytes_per_point", ratio(float64(r.appendWrite), float64(r.appendPoints)), na)
	v.set("disk_bytes_per_point", ratio(float64(r.diskBytes), float64(r.totalPoints)), 1)
	v.set("rss_peak_mib", r.rssPeakMiB, 1)
	v.set("open_fds", float64(r.openFDs), 1)
	return v
}

// percentileNotes lists the end-to-end percentiles the run's sample
// counts do not support; the run is then too short to report them.
func percentileNotes(r *servedRun) []string {
	var notes []string
	if n := len(r.queryMS); !supports(n, 95) {
		notes = append(notes, fmt.Sprintf("query_p95_ms rests on %d samples; p%g is the highest they support", n, highestPercentile(n)))
	}
	if n := len(r.appendMS); !supports(n, 90) {
		notes = append(notes, fmt.Sprintf("append_p90_ms rests on %d samples; p%g is the highest they support", n, highestPercentile(n)))
	}
	return notes
}

// perLayerValues derives the per-layer metrics: the ladder and its
// counts from the traced run, the rows marked served from the served
// run, the micro rows from testing.Benchmark.
func perLayerValues(r *servedRun, t *tracedRun, micro map[string]microResult, errorRate float64) values {
	v := values{}
	spans := t.rec.spans
	self := selfTimes(spans, t.width)
	total := func(name string) []float64 { return spanTotals(spans, name, nil) }
	own := func(name string) []float64 { return spanTotals(spans, name, self) }
	setSelf := func(metric, name string) { v.set(metric, math.Max(0, mean(own(name))), len(own(name))) }
	count := func(name, c string) []float64 { return countTotals(spans, name, c) }
	setMean := func(metric string, xs []float64) { v.set(metric, mean(xs), len(xs)) }

	// Read ladder.
	setMean("client.search_ms", total("client.search"))
	setSelf("client.search_self_ms", "client.search")
	setMean("client.response_bytes", count("client.search", "response_bytes"))
	setMean("server.search_ms", total("server.search"))
	setSelf("server.search_self_ms", "server.search")
	setMean("collection.search_ms", total("collection.search"))
	setSelf("collection.search_self_ms", "collection.search")
	setMean("core.search_ms", total("core.search"))
	setSelf("core.search_self_ms", "core.search")
	setMean("sqlmini.query_ms", total("sqlmini.query"))
	nq := len(total("client.search"))
	v.set("collection.parallel_efficiency",
		ratio(mean(total("core.search")), mean(total("collection.search"))*float64(t.width)), nq)

	// Critical path: everything above the fan-out counts in full, the
	// per-sensor rungs below it one width-th. The sum equals the top rung
	// unless a rung measured longer than the rung above it and its
	// parent's self time was floored.
	path := v["client.search_self_ms"].Value + v["server.search_self_ms"].Value + v["collection.search_self_ms"].Value +
		(v["core.search_self_ms"].Value+v["sqlmini.query_ms"].Value)/float64(t.width)
	top := mean(total("client.search"))
	v.set("trace.ladder_gap_pct", 100*math.Abs(ratio(path-top, top)), nq)

	var servedSample []float64
	for _, i := range t.sample {
		servedSample = append(servedSample, r.sampledMS[i])
	}
	v.set("trace.overhead_pct", 100*ratio(top-mean(servedSample), mean(servedSample)), len(servedSample))

	// sqlmini and pager counts, per query (summed over sensors).
	scan := count("sqlmini.query", "scan_ms")
	analyze := count("sqlmini.query", "analyze_wall_ms")
	setMean("sqlmini.scan_ms", scan)
	v.set("sqlmini.union_merge_ms", mean(analyze)-mean(scan), len(scan))
	examined, returned := count("sqlmini.query", "rows_examined"), count("sqlmini.query", "rows_returned")
	setMean("sqlmini.rows_examined", examined)
	setMean("sqlmini.rows_returned", returned)
	v.set("sqlmini.rows_examined_per_returned", ratio(sum(examined), sum(returned)), len(examined))
	v.set("sqlmini.scan_units", ratio(mean(count("sqlmini.query", "scan_units")), float64(t.sensors)), len(scan))
	v.set("sqlmini.prepare_us", median(t.prepareUS), len(t.prepareUS))
	v.set("sqlmini.plan_us", median(t.planUS), len(t.planUS))
	v.set("sqlmini.catalog_bytes", float64(t.catalogBytes), 1)
	v.set("sqlmini.files_per_sensor", float64(t.filesPerSensor), 1)
	read, hit := count("core.search", "pages_read"), count("core.search", "pages_hit")
	setMean("pager.pages_read", read)
	setMean("pager.pages_hit", hit)
	v.set("pager.hit_rate", ratio(sum(hit), sum(hit)+sum(read)), len(hit))
	setMean("pager.evictions", count("core.search", "evictions"))
	setMean("pager.zone_skipped_pages", count("sqlmini.query", "zone_skipped_pages"))

	// Write ladder.
	setMean("client.append_ms", total("client.append"))
	setSelf("client.append_self_ms", "client.append")
	setMean("server.append_ms", total("server.append"))
	setSelf("server.append_self_ms", "server.append")
	setMean("collection.append_all_ms", total("collection.append_all"))
	setSelf("collection.append_all_self_ms", "collection.append_all")
	nb := len(total("core.sync"))
	pts := float64(t.appended)
	v.set("core.append_us_per_point", ratio(sum(total("core.append"))*1e3, pts), nb)
	setMean("core.sync_ms", total("core.sync"))
	sync := func(c string) []float64 { return count("core.sync", c) }
	setMean("sqlmini.rows_per_batch", sync("rows"))
	v.set("sqlmini.catalog_rewrite_bytes_per_point", ratio(sum(sync("catalog_rewrite_bytes")), pts), nb)
	v.set("pager.write_bytes_per_point", ratio(float64(t.dataBytes), float64(t.corePoints)), nb)
	v.set("pager.sync_calls", ratio(float64(t.dataSyncs), float64(nb+1)), nb)
	setMean("wal.commits_per_batch", sync("wal_commits"))
	setMean("wal.fsyncs_per_batch", sync("wal_fsyncs"))
	setMean("wal.pages_logged_per_batch", sync("wal_pages_logged"))
	v.set("wal.bytes_per_point", ratio(sum(sync("wal_bytes")), pts), nb)
	setMean("wal.fsync_ms", sync("wal_fsync_ms"))

	// The ingest pipeline on its own.
	v.set("segment.push_ns_per_point", t.segmentNSPerPoint, 1)
	v.set("segment.points_per_segment", t.pointsPerSegment, 1)
	v.set("extract.push_us_per_segment", t.extractUSPerSegment, 1)
	v.set("extract.boundaries_per_segment", t.boundariesPerSegment, 1)
	v.set("extract.corners_per_boundary", t.cornersPerBoundary, 1)

	// Served rows.
	var byClass [3][]float64 // empty, selective, broad
	for i, rows := range r.queryRows {
		class := 1
		switch {
		case rows == 0:
			class = 0
		case rows >= 1000:
			class = 2
		}
		byClass[class] = append(byClass[class], r.queryMS[i])
	}
	for class, name := range []string{"client.empty_p50_ms", "client.selective_p50_ms", "client.broad_p50_ms"} {
		p50 := 0.0
		if len(byClass[class]) > 0 {
			p50 = percentile(byClass[class], 50)
		}
		v.set(name, p50, len(byClass[class]))
	}
	late := 0.0
	if len(r.appendLateMS) > 0 {
		late = percentile(r.appendLateMS, 100)
	}
	v.set("client.late_max_ms", late, len(r.appendLateMS))
	v.set("client.error_rate", errorRate, r.attempted())
	var http4, http5 uint64
	for name, c := range r.server.Counters {
		switch {
		case strings.HasSuffix(name, "_4xx"):
			http4 += c
		case strings.HasSuffix(name, "_5xx"):
			http5 += c
		}
	}
	v.set("server.http_4xx", float64(http4), 1)
	v.set("server.http_5xx", float64(http5), 1)
	v.set("server.lane_read_rejected", float64(r.server.Counter("lane_read_rejected")), 1)
	v.set("server.lane_write_rejected", float64(r.server.Counter("lane_write_rejected")), 1)

	// Micro rows: time per op in the metric's unit, and allocs per op.
	for _, m := range []struct {
		row, timeMetric string
		perUnit         float64 // nanoseconds per unit of timeMetric
		allocsMetric    string
	}{
		{"WALCommit", "wal.commit_us", 1e3, "wal.commit_allocs"},
		{"BtreeSeek", "btree.seek_us", 1e3, "btree.seek_allocs"},
		{"BtreeNext", "btree.next_ns_per_entry", 1, "btree.next_allocs_per_entry"},
		{"HeapFetch", "heap.fetch_ns", 1, "heap.fetch_allocs"},
		{"KeyencEncode", "keyenc.encode_ns", 1, "keyenc.encode_allocs"},
		{"KeyencDecode", "keyenc.decode_ns", 1, "keyenc.decode_allocs"},
		{"SegmenterPush", "", 1, "segment.push_allocs"},
		{"ExtractorPush", "", 1, "extract.push_allocs"},
		{"SmoothRobust", "smooth.robust_us_per_point", 1e3 * smoothPoints, ""},
	} {
		res := micro[m.row]
		if m.timeMetric != "" {
			v.set(m.timeMetric, res.nsPerOp/m.perUnit, res.n)
		}
		if m.allocsMetric != "" {
			v.set(m.allocsMetric, res.allocsPerOp, res.n)
		}
	}

	// The naive baseline.
	setMean("naive.scan_ms", t.naiveMS)
	v.set("naive.segdiff_over_naive", ratio(sum(t.coreForNaiveMS), sum(t.naiveMS)), len(t.naiveMS))
	return v
}
