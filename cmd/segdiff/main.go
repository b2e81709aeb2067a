// Command segdiff is the exploration CLI around the SegDiff index: it
// ingests CSV sensor data into an on-disk index and answers ad-hoc drop
// and jump searches, the workflow the paper's biologists use.
//
// Subcommands:
//
//	segdiff ingest -db DIR -csv FILE [-epsilon 0.2] [-window 8h] [-denoise]
//	segdiff search -db DIR [-kind drop] [-span 1h] [-v -3] [-plan auto]
//	segdiff trace  -db DIR [-kind drop] [-span 1h] [-v -3] [-plan auto] [-json]
//	segdiff stats  -db DIR [-v]
//	segdiff sql    -db DIR -q "SELECT COUNT(*) FROM dropf2"
//	segdiff plot   -db DIR -span 1h -v -3
//	segdiff verify -db DIR -csv FILE -span 1h -v -3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"segdiff/internal/core"
	"segdiff/internal/feature"
	"segdiff/internal/obs"
	"segdiff/internal/smooth"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/timeseries"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "ingest":
		err = ingest(os.Args[2:])
	case "search":
		err = search(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	case "sql":
		err = sqlCmd(os.Args[2:])
	case "plot":
		err = plotCmd(os.Args[2:])
	case "verify":
		err = verifyCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "segdiff:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: segdiff <ingest|search|trace|stats|sql> [flags]
  ingest -db DIR -csv FILE [-epsilon 0.2] [-window 8h] [-denoise]
  search -db DIR [-kind drop|jump] [-span 1h] [-v -3] [-plan auto|scan|index]
  trace  -db DIR [-kind drop|jump] [-span 1h] [-v -3] [-plan auto|scan|index] [-json] [-debug ADDR]
  stats  -db DIR [-v]
  sql    -db DIR -q "SELECT ..."
  plot   -db DIR [-from T0 -to T1] [-span 1h] [-v -3] [-width 100 -height 20]
  verify -db DIR -csv FILE [-span 1h] [-v -3]   (check the Theorem 1 guarantees)`)
	os.Exit(2)
}

func openStore(db string, eps float64, window time.Duration) (*core.Store, error) {
	if db == "" {
		return nil, fmt.Errorf("missing -db")
	}
	return core.Open(db, core.Options{Epsilon: eps, Window: int64(window / time.Second)})
}

func ingest(args []string) (err error) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	csvPath := fs.String("csv", "", "input CSV of t,v rows ('-' for stdin)")
	eps := fs.Float64("epsilon", 0.2, "segmentation error tolerance ε")
	window := fs.Duration("window", 8*time.Hour, "largest supported time span w")
	denoise := fs.Bool("denoise", false, "apply robust smoothing before ingest (removes anomaly spikes)")
	fs.Parse(args)

	in := os.Stdin
	if *csvPath != "-" && *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		defer joinClose(&err, f)
		in = f
	} else if *csvPath == "" {
		return fmt.Errorf("missing -csv")
	}
	series, err := timeseries.ReadCSV(in)
	if err != nil {
		return err
	}
	if *denoise {
		series, err = smooth.Robust(series, smooth.Config{})
		if err != nil {
			return err
		}
	}
	st, err := openStore(*db, *eps, *window)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := st.AppendSeries(series); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Printf("ingested %d points in %v\n", series.Len(), time.Since(start).Round(time.Millisecond))
	return nil
}

// parseKind maps a -kind flag value to a feature kind.
func parseKind(s string) feature.Kind {
	if strings.EqualFold(s, "jump") {
		return feature.Jump
	}
	return feature.Drop
}

// parsePlan maps a -plan flag value to a plan mode. For search, auto is
// the served scan of the committed segments, and scan and index run the
// feature-index reference with every branch forced to a heap scan or to
// its index; trace always runs the reference, planned under the mode.
func parsePlan(s string) (sqlmini.PlanMode, error) {
	switch s {
	case "auto":
		return sqlmini.PlanAuto, nil
	case "scan":
		return sqlmini.PlanForceScan, nil
	case "index":
		return sqlmini.PlanForceIndex, nil
	default:
		return sqlmini.PlanAuto, fmt.Errorf("unknown -plan %q", s)
	}
}

func search(args []string) (err error) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	kindStr := fs.String("kind", "drop", "drop or jump")
	span := fs.Duration("span", time.Hour, "time span threshold T")
	v := fs.Float64("v", -3, "change threshold V (negative for drops, positive for jumps)")
	planStr := fs.String("plan", "auto", "auto (the served scan), or scan or index (the feature-index reference)")
	fs.Parse(args)

	kind := parseKind(*kindStr)
	mode, err := parsePlan(*planStr)
	if err != nil {
		return err
	}

	st, err := openStore(*db, 0, 0)
	if err != nil {
		return err
	}
	defer joinClose(&err, st)
	start := time.Now()
	matches, err := st.SearchMode(kind, int64(*span/time.Second), *v, mode)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	for _, m := range matches {
		fmt.Printf("%s starts in [%d, %d], ends in [%d, %d]\n", kind, m.From.Start, m.From.End, m.To.Start, m.To.End)
	}
	fmt.Printf("%d periods in %v (ε=%.3g: every result contains an event within 2ε of V)\n",
		len(matches), elapsed.Round(time.Microsecond), st.Epsilon())
	return nil
}

// traceCmd runs one drop/jump search's feature-index reference plan
// (not the served scan) under EXPLAIN ANALYZE and prints the annotated
// plan: per-node actual rows, page I/O, zone-map skips,
// and wall time next to the planner's estimates. With -debug ADDR it
// also serves the engine's expvar/pprof/metrics endpoint for the
// lifetime of the command (useful together with -iters for profiling).
func traceCmd(args []string) (err error) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	kindStr := fs.String("kind", "drop", "drop or jump")
	span := fs.Duration("span", time.Hour, "time span threshold T")
	v := fs.Float64("v", -3, "change threshold V (negative for drops, positive for jumps)")
	planStr := fs.String("plan", "auto", "how the feature-index reference is planned: auto, scan or index")
	jsonOut := fs.Bool("json", false, "emit the trace as JSON instead of text")
	iters := fs.Int("iters", 1, "number of traced executions (last trace is reported)")
	debugAddr := fs.String("debug", "", "serve the expvar/pprof/metrics debug endpoint on this address")
	fs.Parse(args)

	kind := parseKind(*kindStr)
	mode, err := parsePlan(*planStr)
	if err != nil {
		return err
	}
	st, err := openStore(*db, 0, 0)
	if err != nil {
		return err
	}
	defer joinClose(&err, st)

	if *debugAddr != "" {
		d, derr := obs.ServeDebug(*debugAddr, st.DB().Registry())
		if derr != nil {
			return derr
		}
		defer joinClose(&err, d)
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", d.Addr())
	}

	var tr *obs.Trace
	for i := 0; i < *iters; i++ {
		tr, err = st.TraceSearch(kind, int64(*span/time.Second), *v, mode)
		if err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tr)
	}
	for _, line := range tr.Lines() {
		fmt.Println(line)
	}
	fmt.Printf("%d rows in %v (kind=%s plan=%s)\n",
		tr.Rows, time.Duration(tr.WallNS).Round(time.Microsecond), kind, tr.Mode)
	return nil
}

func stats(args []string) (err error) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	verbose := fs.Bool("v", false, "also print the engine metrics registry")
	fs.Parse(args)
	st, err := openStore(*db, 0, 0)
	if err != nil {
		return err
	}
	defer joinClose(&err, st)
	s, err := st.Stats()
	if err != nil {
		return err
	}
	segs, err := st.Segments()
	if err != nil {
		return err
	}
	fmt.Printf("epsilon:        %g\n", s.Epsilon)
	fmt.Printf("window:         %s\n", time.Duration(s.Window)*time.Second)
	fmt.Printf("segments:       %d\n", len(segs))
	fmt.Printf("feature rows:   %d\n", s.FeatureRows)
	fmt.Printf("feature bytes:  %d\n", s.FeatureBytes)
	fmt.Printf("index bytes:    %d\n", s.IndexBytes)
	fmt.Printf("disk bytes:     %d\n", s.DiskBytes())
	fmt.Printf("cache:          %d hits, %d misses, %d reads, %d writes (this session)\n",
		s.Cache.Hits, s.Cache.Misses, s.Cache.Reads, s.Cache.Writes)
	fmt.Printf("zone-skipped:   %d pages\n", s.ZoneSkippedPages)
	if *verbose {
		snap := st.Metrics()
		fmt.Println("engine metrics (this session):")
		for _, name := range snap.Names() {
			fmt.Printf("  %-28s %d\n", name, snap.Counters[name])
		}
		for _, name := range sortedKeys(snap.Gauges) {
			fmt.Printf("  %-28s %d (gauge)\n", name, snap.Gauges[name])
		}
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Printf("  %-28s count=%d mean=%.0f max<%d\n", name, h.Count, h.Mean(), h.Max())
		}
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sqlCmd(args []string) (err error) {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	q := fs.String("q", "", "SELECT or EXPLAIN statement")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("missing -q")
	}
	st, err := openStore(*db, 0, 0)
	if err != nil {
		return err
	}
	defer joinClose(&err, st)
	rows, err := st.DB().Query(*q)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(rows.Columns, "\t"))
	for _, r := range rows.Data {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	return nil
}

// joinClose closes c when the surrounding command returns, folding a close
// failure into the command's named error unless one is already set. Store
// Close commits pending state, so the error is a real data-loss signal.
func joinClose(err *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}
