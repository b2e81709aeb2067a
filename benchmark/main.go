// Command benchmark is the repo's one benchmark: it builds cmd/segdiffd,
// runs it as a child process on real files with real fsync, drives it
// through segdiff.Client with a seeded CAD corpus and query list, checks
// every output, and prints every metric by name with its unit. A second,
// traced run hosts the same layers in-process and times the calls into
// each layer's public API to produce the per-layer numbers.
//
//	go run ./benchmark                      every workload, end to end and per layer
//	go run ./benchmark -runs 5 -out a.json  a set of runs (seeds seed..seed+4) for -compare
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -workload query-deep -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -quick               the small tier go test runs
//	go run ./benchmark -spec                BENCHMARK.json, from the tables in spec.go
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"text/tabwriter"
	"time"
)

func main() {
	testing.Init() // registers -test.benchtime, which the micro rows set
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// quickWorkload is the tier "go test ./..." runs so the benchmark cannot
// rot: every phase, check and rung, on a corpus small enough for seconds.
var quickWorkload = workload{
	name: "quick", why: "1 sensor x 60 days, every phase and check in seconds",
	sensors: 1, bulkHours: 60 * 24, appends: 50, queries: 100, setupReps: 1, restartCheck: true,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName  = fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all four)")
		seed    = fs.Int64("seed", defaultSeed, "workload seed; the only input")
		seconds = fs.Int("seconds", referenceSeconds, "how long the measured phases should take on the seed commit; scales the op counts")
		trace   = fs.Int("trace", -1, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		runs    = fs.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
		out     = fs.String("out", "", "without -workload: write the results JSON here")
		compare = fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
		quick   = fs.Bool("quick", false, "run the quick tier")
		spec    = fs.Bool("spec", false, "print BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	switch {
	case *spec:
		data, err := benchmarkSpec()
		if err != nil {
			return fail(err)
		}
		if _, err := stdout.Write(data); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("benchmark: -compare takes two results files"))
		}
		old, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		cur, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compareResults(stdout, old, cur) {
			return 1
		}
		return 0
	}
	if *seconds < 1 || *runs < 1 {
		return fail(fmt.Errorf("benchmark: -seconds and -runs must be at least 1"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		return fail(err)
	}
	defer e.close() //nolint:errcheck // scratch data; nothing depends on its removal

	switch {
	case *quick:
		o, err := oneRun(ctx, e, quickWorkload, *seed, referenceSeconds, true)
		if err != nil {
			return fail(err)
		}
		o.print(stdout)
		if !o.correct() {
			return 1
		}
		return 0
	case *wlName != "":
		w, ok := findWorkload(*wlName)
		if !ok {
			return fail(fmt.Errorf("benchmark: unknown workload %q", *wlName))
		}
		if *trace != 0 && *trace != 1 {
			return fail(fmt.Errorf("benchmark: -workload needs -trace 0 or -trace 1"))
		}
		o, err := oneRun(ctx, e, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fail(err)
		}
		o.print(stdout)
		if err := o.printContractLine(stdout, *trace == 1); err != nil {
			return fail(err)
		}
		if !o.correct() {
			return 1
		}
		return 0
	}

	// The whole benchmark: every workload, served then traced.
	res := &results{
		Schema:    schemaVersion,
		Env:       currentEnv(e.scratch, *seed, *seconds, *runs),
		Workloads: map[string]*workloadResult{},
	}
	allCorrect := true
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: map[string]*metricResult{}, PerLayer: map[string]*metricResult{}}
		res.Workloads[w.name] = wr
		for i := 0; i < *runs; i++ {
			o, err := oneRun(ctx, e, w, *seed+int64(i), *seconds, true)
			if err != nil {
				return fail(err)
			}
			o.print(stdout)
			allCorrect = allCorrect && o.correct()
			if i == 0 {
				wr.CorpusSHA256, wr.RowsMeasured, wr.RowsSampled = o.corpusSHA256, o.rowsMeasured, o.rowsSampled
			}
			wr.Seeds = append(wr.Seeds, o.seed)
			wr.Attempted += o.attempted
			wr.Failed += o.failed
			fold(wr.EndToEnd, endToEnd, o.endToEnd)
			fold(wr.PerLayer, perLayer, o.perLayer)
		}
	}
	if *out != "" {
		if err := writeResults(*out, res); err != nil {
			return fail(err)
		}
	}
	if !allCorrect {
		fmt.Fprintln(stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

// outcome is one run of one workload.
type outcome struct {
	workload string
	seed     int64
	elapsed  time.Duration

	endToEnd []measured // in table order
	perLayer []measured // nil unless traced
	notes    []string
	spans    string // where spans.json went

	attempted, failed int
	failures          []string

	corpusSHA256              string
	rowsMeasured, rowsSampled int
}

func (o *outcome) correct() bool { return o.failed == 0 }

// oneRun generates the inputs, runs the served workload and its output
// checks, and, when traced, the in-process replay and the micro rows.
func oneRun(ctx context.Context, e *env, w workload, seed int64, seconds int, traced bool) (*outcome, error) {
	start := time.Now()
	sw := w.scaled(seconds)
	c, err := generateCorpus(seed, sw.sensors, sw.bulkHours, sw.appends+sw.fillHours)
	if err != nil {
		return nil, err
	}
	qs := generateQueries(sw.queries)

	r, err := runServed(ctx, e, sw, c, qs)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	rep, err := runChecks(ctx, e, sw, c, qs, r)
	if err != nil {
		return nil, err
	}

	o := &outcome{
		workload:     w.name,
		seed:         seed,
		attempted:    r.attempted() + rep.attempted,
		failed:       r.failed() + len(rep.failures),
		failures:     append(r.failures(), rep.failures...),
		notes:        percentileNotes(r),
		corpusSHA256: c.fingerprint,
		rowsSampled:  rep.rowsSampled,
	}
	if w.period == 0 {
		for _, n := range r.queryRows {
			o.rowsMeasured += n
		}
	}
	if p, ok := pins[w.name]; ok && seed == defaultSeed && seconds == referenceSeconds && runtime.GOARCH == pinnedArch {
		got := pin{o.corpusSHA256, o.rowsMeasured, o.rowsSampled}
		if got != p {
			return nil, fmt.Errorf("benchmark: %s on the default seed no longer matches its pinned fingerprint:\n  pinned   %+v\n  measured %+v\n"+
				"the generator, the smoother or the search changed what this workload measures; if that is intended, update benchmark/pins.go",
				w.name, p, got)
		}
	}
	if o.endToEnd, err = endToEndValues(r).inOrder(endToEnd); err != nil {
		return nil, err
	}

	if traced {
		t, err := runTraced(ctx, e, c, qs, r)
		if err != nil {
			return nil, err
		}
		micro, err := runMicro(&microEnv{
			storeDir: filepath.Join(r.dir, c.sensors[0]),
			scratch:  e.scratch,
			series:   c.series[0],
		})
		if err != nil {
			return nil, err
		}
		errorRate := ratio(float64(o.failed), float64(o.attempted))
		if o.perLayer, err = perLayerValues(r, t, micro, errorRate).inOrder(perLayer); err != nil {
			return nil, err
		}
		o.spans = filepath.Join(e.root, buildDir, "spans-"+w.name+".json")
		if err := t.rec.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	o.elapsed = time.Since(start)
	return o, nil
}

// print lists every metric of the run by name, with its unit and the
// number of samples behind it.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  %.1fs  corpus=%s  rows measured=%d sampled=%d\n",
		o.workload, o.seed, o.elapsed.Seconds(), o.corpusSHA256[:12], o.rowsMeasured, o.rowsSampled)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(s metricSpec, m measured) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\t%s\n", s.Name, m.Value, s.Unit, m.N, s.Moves)
	}
	for i, m := range o.endToEnd {
		row(endToEnd[i], m)
	}
	for i, m := range o.perLayer {
		row(perLayer[i], m)
	}
	tw.Flush()
	fmt.Fprintf(w, "  operations and checks attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if o.spans != "" {
		fmt.Fprintf(w, "  spans: %s\n", o.spans)
	}
}

// printContractLine ends the output with the driver's one-line result.
func (o *outcome) printContractLine(w io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, map[string]value{}}
	specs, vals := endToEnd, o.endToEnd
	if traced {
		specs, vals = perLayer, o.perLayer
	}
	for i, s := range specs {
		line.Metrics[s.Name] = value{vals[i].Value, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
