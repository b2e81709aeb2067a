package main

import (
	"encoding/json"
)

// metricSpec declares one reported metric. The tables below are the one
// place metrics are named: BENCHMARK.json is generated from them
// ("go run ./benchmark -spec") and a test fails when the two drift apart.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload; for an end-to-end metric, what
	// it is.
	Moves string
}

// Bounds. Everything measured in wall or CPU time carries the contract's
// widest bound, a quarter: over ten seeds on the seed commit the spread
// of these metrics (Q3-Q1 over the median) ran from 3 % to 20 % depending
// on the workload, and the sandbox itself drifts by up to a fifth within
// minutes (README, "Noise"); a tighter bound would reject the benchmark's
// own reruns. Byte and memory counts are far steadier and bounded
// accordingly; open_fds repeats exactly.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "segdiffd start -> healthy -> corpus bulk-loaded in 30-day requests; median of the workload's repetitions"},
	{"query_p50_ms", "ms", "lower", 0.25, "Client.Drops/Jumps wall, send -> last NDJSON line decoded; median"},
	{"query_p95_ms", "ms", "lower", 0.25, "as above, 95th percentile (every workload measures >= 200 queries)"},
	{"query_qps", "1/s", "higher", 0.25, "queries completed / wall of the measured query pass"},
	{"query_cpu_ms", "ms", "lower", 0.25, "child utime+stime over the query pass / queries (mixed: over the concurrent phase)"},
	{"ingest_points_per_s", "1/s", "higher", 0.25, "acked points / time the writer spent inside Client.Append"},
	{"append_p50_ms", "ms", "lower", 0.25, "Client.Append wall of one-hour requests (mixed: from the due time); median"},
	{"append_p90_ms", "ms", "lower", 0.25, "as above, 90th percentile (every workload measures >= 100 appends)"},
	{"ingest_cpu_us_per_point", "us", "lower", 0.25, "child utime+stime over the append phase / acked points (mixed: over the concurrent phase)"},
	{"write_bytes_per_point", "B", "lower", 0.10, "child /proc/<pid>/io write_bytes over the append phase / acked points"},
	{"disk_bytes_per_point", "B", "lower", 0.10, "collection directory bytes after SIGTERM drain / points ingested"},
	{"rss_peak_mib", "MiB", "lower", 0.15, "child VmHWM at the end of the measured pass"},
	{"open_fds", "count", "lower", 0.02, "entries in /proc/<pid>/fd at the end of the measured pass"},
}

var perLayer = []metricSpec{
	{"client.search_ms", "ms", "lower", 0, "query_p95_ms -> query-wide, query-deep (broad rows)"},
	{"client.search_self_ms", "ms", "lower", 0, "NDJSON decode + HTTP client: query_p95_ms -> query-wide, query-deep"},
	{"client.response_bytes", "B", "lower", 0, "query_p95_ms -> query-wide, query-deep"},
	{"client.empty_p50_ms", "ms", "lower", 0, "served, rows = 0: query_p50_ms -> all (per-query fixed cost)"},
	{"client.selective_p50_ms", "ms", "lower", 0, "served, rows 1-999: query_p50_ms -> all"},
	{"client.broad_p50_ms", "ms", "lower", 0, "served, rows >= 1000: query_p95_ms -> all (per-row cost)"},
	{"client.append_ms", "ms", "lower", 0, "append_p50_ms -> ingest-stream"},
	{"client.append_self_ms", "ms", "lower", 0, "JSON encode + HTTP client: append_p50_ms -> ingest-stream"},
	{"client.late_max_ms", "ms", "lower", 0, "served: generator health on mixed; above one period the run is invalid"},
	{"client.error_rate", "ratio", "lower", 0, "served: (failed operations + failed output checks) / attempted; the contract's failed/attempted"},

	{"server.search_ms", "ms", "lower", 0, "Handler().ServeHTTP: query_p95_ms, query_cpu_ms -> query-wide"},
	{"server.search_self_ms", "ms", "lower", 0, "param decode + lane + NDJSON encode: query_p95_ms, query_cpu_ms -> query-wide"},
	{"server.append_ms", "ms", "lower", 0, "append_p50_ms -> ingest-stream"},
	{"server.append_self_ms", "ms", "lower", 0, "JSON body decode: append_p50_ms -> ingest-stream"},
	{"server.lane_read_rejected", "count", "lower", 0, "served /metrics: failed -> mixed"},
	{"server.lane_write_rejected", "count", "lower", 0, "served /metrics: failed -> mixed"},
	{"server.http_4xx", "count", "lower", 0, "served /metrics: failed -> all"},
	{"server.http_5xx", "count", "lower", 0, "served /metrics: failed -> all"},

	{"collection.search_ms", "ms", "lower", 0, "query_p50_ms -> query-wide; none -> query-deep"},
	{"collection.search_self_ms", "ms", "lower", 0, "fan-out dispatch, imbalance, result assembly: query_p50_ms -> query-wide"},
	{"collection.parallel_efficiency", "ratio", "higher", 0, "sum of per-sensor core.search / (collection.search x min(sensors, nproc)): query_p50_ms -> query-wide"},
	{"collection.append_all_ms", "ms", "lower", 0, "append_p50_ms -> ingest-stream, mixed"},
	{"collection.append_all_self_ms", "ms", "lower", 0, "grouping + worker dispatch: append_p50_ms -> ingest-stream"},

	{"core.search_ms", "ms", "lower", 0, "sum over sensors: query_p95_ms -> query-deep"},
	{"core.search_self_ms", "ms", "lower", 0, "arg build, Match copy, sort.Slice: query_p95_ms -> query-deep"},
	{"core.append_us_per_point", "us", "lower", 0, "segment + extract + row buffer: ingest_cpu_us_per_point -> ingest-stream"},
	{"core.sync_ms", "ms", "lower", 0, "sum over sensors per request: append_p50_ms -> ingest-stream"},

	{"segment.push_ns_per_point", "ns", "lower", 0, "ingest_cpu_us_per_point -> ingest-stream"},
	{"segment.points_per_segment", "ratio", "higher", 0, "disk_bytes_per_point -> all"},
	{"extract.push_us_per_segment", "us", "lower", 0, "ingest_cpu_us_per_point -> ingest-stream"},
	{"extract.boundaries_per_segment", "ratio", "lower", 0, "disk_bytes_per_point, ingest_cpu_us_per_point -> all"},
	{"extract.corners_per_boundary", "ratio", "lower", 0, "disk_bytes_per_point -> all"},

	{"sqlmini.prepare_us", "us", "lower", 0, "DB.Prepare of the 9-branch UNION: none (paid once per open)"},
	{"sqlmini.plan_us", "us", "lower", 0, "EXPLAIN of it (parse + plan + fuse): query_p50_ms -> query-wide (x sensors per query)"},
	{"sqlmini.query_ms", "ms", "lower", 0, "sum over sensors: query_p95_ms -> query-deep"},
	{"sqlmini.scan_ms", "ms", "lower", 0, "sum of scan-unit wall from TraceSearch: query_p95_ms -> query-deep"},
	{"sqlmini.union_merge_ms", "ms", "lower", 0, "TraceSearch wall - scan units (parse, plan, dedup): query_p95_ms -> query-deep"},
	{"sqlmini.rows_examined", "count", "lower", 0, "per query: query_cpu_ms -> query-wide, query-deep"},
	{"sqlmini.rows_returned", "count", "lower", 0, "per query, before UNION dedup: fixed by the workload"},
	{"sqlmini.rows_examined_per_returned", "ratio", "lower", 0, "query_cpu_ms -> query-wide, query-deep"},
	{"sqlmini.scan_units", "count", "lower", 0, "per sensor search: query_p50_ms -> all"},
	{"sqlmini.rows_per_batch", "count", "lower", 0, "rows inserted per append request: write_bytes_per_point -> ingest-stream"},
	{"sqlmini.catalog_bytes", "B", "lower", 0, "catalog.json of the first sensor after drain: write_bytes_per_point, append_p90_ms -> all"},
	{"sqlmini.catalog_rewrite_bytes_per_point", "B", "lower", 0, "catalog.json bytes rewritten at Sync / point: write_bytes_per_point -> ingest-stream"},
	{"sqlmini.files_per_sensor", "count", "lower", 0, "open_fds -> all"},

	{"pager.pages_read", "count", "lower", 0, "per query: query_p95_ms -> query-deep; 0 expected on query-wide"},
	{"pager.pages_hit", "count", "lower", 0, "per query: query_cpu_ms -> all"},
	{"pager.hit_rate", "ratio", "higher", 0, "query_p95_ms -> query-deep; 1 expected on query-wide"},
	{"pager.evictions", "count", "lower", 0, "per query: query_p95_ms -> query-deep; 0 expected on query-wide"},
	{"pager.zone_skipped_pages", "count", "higher", 0, "per query: query_p95_ms -> query-deep"},
	{"pager.write_bytes_per_point", "B", "lower", 0, ".tbl/.idx writes: write_bytes_per_point -> ingest-stream"},
	{"pager.sync_calls", "count", "lower", 0, ".tbl/.idx fsyncs per append request: append_p50_ms -> ingest-stream"},

	{"wal.commits_per_batch", "count", "lower", 0, "append_p50_ms, ingest_points_per_s -> ingest-stream, mixed"},
	{"wal.fsyncs_per_batch", "count", "lower", 0, "append_p50_ms, ingest_points_per_s -> ingest-stream, mixed"},
	{"wal.pages_logged_per_batch", "count", "lower", 0, "write_bytes_per_point -> ingest-stream"},
	{"wal.bytes_per_point", "B", "lower", 0, "write_bytes_per_point -> ingest-stream"},
	{"wal.fsync_ms", "ms", "lower", 0, "per append request: append_p50_ms -> ingest-stream, mixed"},

	{"wal.commit_us", "us", "lower", 0, "micro, one page + fsync on a real file: explains core.sync_ms"},
	{"wal.commit_allocs", "count", "lower", 0, "micro, allocs/op"},
	{"btree.seek_us", "us", "lower", 0, "micro, descent of a copied _c1 index: explains sqlmini.scan_ms"},
	{"btree.seek_allocs", "count", "lower", 0, "micro, allocs/op"},
	{"btree.next_ns_per_entry", "ns", "lower", 0, "micro, leaf-chain walk: explains sqlmini.scan_ms"},
	{"btree.next_allocs_per_entry", "count", "lower", 0, "micro, allocs/op"},
	{"heap.fetch_ns", "ns", "lower", 0, "micro, View of a copied feature table: explains sqlmini.scan_ms"},
	{"heap.fetch_allocs", "count", "lower", 0, "micro, allocs/op"},
	{"keyenc.encode_ns", "ns", "lower", 0, "micro, (int, float) key: explains core.sync_ms"},
	{"keyenc.encode_allocs", "count", "lower", 0, "micro, allocs/op"},
	{"keyenc.decode_ns", "ns", "lower", 0, "micro: explains sqlmini.scan_ms"},
	{"keyenc.decode_allocs", "count", "lower", 0, "micro, allocs/op"},
	{"segment.push_allocs", "count", "lower", 0, "micro, allocs/op of Segmenter.Push"},
	{"extract.push_allocs", "count", "lower", 0, "micro, allocs/op of Extractor.Push"},
	{"smooth.robust_us_per_point", "us", "lower", 0, "micro: corpus preparation only, no end-to-end metric"},

	{"naive.scan_ms", "ms", "lower", 0, "naive pairwise scan of the first sensor's points, same queries: none"},
	{"naive.segdiff_over_naive", "ratio", "lower", 0, "core.search / naive.scan on that sensor (below 1: SegDiff wins): none"},
	{"trace.overhead_pct", "%", "lower", 0, "traced client.search mean vs served mean on the same queries: bounds trust in the ladder"},
	{"trace.ladder_gap_pct", "%", "lower", 0, "distance between the read ladder's self times summed along the critical path and client.search_ms"},
}

// benchmarkJSON is BENCHMARK.json's shape, exactly the contract's keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []boundedJSON  `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec renders the tables as BENCHMARK.json.
func benchmarkSpec() ([]byte, error) {
	spec := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: referenceSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, boundedJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
