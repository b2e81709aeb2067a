package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"segdiff"
	"segdiff/internal/crashtest"
	"segdiff/internal/feature"
)

// The store the child serves runs with segdiffd's defaults; the oracle
// needs the same tolerance.
const epsilon = 0.2

// checkReport is the outcome of the output checks of one run.
type checkReport struct {
	attempted int
	failures  []string
	// rowsSampled is the number of matches in the in-process answers to
	// the sampled queries: part of the workload fingerprint.
	rowsSampled int
}

func (c *checkReport) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok && len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func matchLess(a, b segdiff.Match) bool {
	switch {
	case a.From.Start != b.From.Start:
		return a.From.Start < b.From.Start
	case a.To.Start != b.To.Start:
		return a.To.Start < b.To.Start
	case a.From.End != b.From.End:
		return a.From.End < b.From.End
	default:
		return a.To.End < b.To.End
	}
}

// canonical returns a copy of ms in a total order (the engine sorts on
// two of the four fields only).
func canonical(ms []segdiff.Match) []segdiff.Match {
	out := append([]segdiff.Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return matchLess(out[i], out[j]) })
	return out
}

// endingBefore keeps the matches that end before cutoff, in order.
func endingBefore(ms []segdiff.Match, cutoff int64) []segdiff.Match {
	out := make([]segdiff.Match, 0, len(ms))
	for _, m := range ms {
		if m.To.End < cutoff {
			out = append(out, m)
		}
	}
	return out
}

// subset reports whether every element of a occurs in b; both canonical.
func subset(a, b []segdiff.Match) bool {
	j := 0
	for _, m := range a {
		for j < len(b) && matchLess(b[j], m) {
			j++
		}
		if j == len(b) || b[j] != m {
			return false
		}
		j++
	}
	return true
}

// between checks lower ⊆ wire ⊆ upper per sensor, where lower and upper
// are the drained store's answer cut at two timestamps. A match exists
// from the moment its later segment closes and that segment ends no
// earlier than the newest point ingested by then, so a response taken
// when the newest acked point was T holds every final match ending
// before T and nothing the final answer lacks. With the store quiescent
// the two cuts coincide and the check is equality.
func between(wire, final []segdiff.SensorMatches, tLow, tHigh int64) error {
	if len(wire) != len(final) {
		return fmt.Errorf("%d sensors on the wire, %d in the store", len(wire), len(final))
	}
	for i := range final {
		if wire[i].Sensor != final[i].Sensor {
			return fmt.Errorf("sensor %d is %q on the wire, %q in the store", i, wire[i].Sensor, final[i].Sensor)
		}
		got := canonical(wire[i].Matches)
		all := canonical(final[i].Matches)
		lower, upper := endingBefore(all, tLow), endingBefore(all, tHigh)
		if !subset(lower, got) {
			return fmt.Errorf("sensor %s: wire response (%d matches) lacks a match the store had (%d)", final[i].Sensor, len(got), len(lower))
		}
		if !subset(got, upper) {
			return fmt.Errorf("sensor %s: wire response (%d matches) holds a match the store lacks (%d)", final[i].Sensor, len(got), len(upper))
		}
	}
	return nil
}

// searchCollection is runQuery against an in-process collection.
func searchCollection(ctx context.Context, col *segdiff.Collection, q query, sensors ...string) ([]segdiff.SensorMatches, error) {
	if q.Jump {
		return col.JumpsContext(ctx, q.Span, q.V, sensors...)
	}
	return col.DropsContext(ctx, q.Span, q.V, sensors...)
}

// runChecks checks the run's outputs: (b) every sampled wire response
// against the drained store's own answer, (a) Theorem 1 against the naive
// oracle on selective queries, (c) the answers of a restarted child, when
// the workload asks for one, and the acked point count, (d) no 5xx.
// Failures are listed in the report; an error is returned only when the
// checks cannot run.
func runChecks(ctx context.Context, e *env, w workload, c *corpus, qs []query, r *servedRun) (*checkReport, error) {
	rep := &checkReport{}
	idx := make([]int, 0, len(r.sampled))
	for i := range r.sampled {
		idx = append(idx, i)
	}
	sort.Ints(idx)

	final, err := checkAgainstStore(ctx, w, c, qs, r, idx, rep)
	if err != nil {
		return nil, err
	}

	// (c) the same questions to a restarted child, and nothing lost.
	if w.restartCheck {
		after, err := restartAndAsk(ctx, e, r.dir, qs, idx)
		rep.check(err == nil, "restart: %v", err)
		for _, i := range idx {
			if res, ok := after[i]; ok {
				err := between(res, final[i], math.MaxInt64, math.MaxInt64)
				rep.check(err == nil, "after restart, query %d (%s): %v", i, qs[i], err)
			}
		}
	}
	rep.check(r.appendPoints == r.pointsSent, "acked %d points of %d sent", r.appendPoints, r.pointsSent)

	// (d) no request failed inside the server.
	for name, v := range r.server.Counters {
		if strings.HasSuffix(name, "_5xx") {
			rep.check(v == 0, "segdiffd counted %s = %d", name, v)
		}
	}
	return rep, nil
}

// checkAgainstStore opens the drained directory in-process for checks
// (b) and (a) and returns the store's answers to the sampled queries.
func checkAgainstStore(ctx context.Context, w workload, c *corpus, qs []query, r *servedRun, idx []int, rep *checkReport) (_ map[int][]segdiff.SensorMatches, err error) {
	col, err := segdiff.OpenCollection(r.dir, segdiff.Options{})
	if err != nil {
		return nil, err
	}
	defer func() {
		// Other processes open the directory next; a failed close would
		// leave it in doubt.
		if cerr := col.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	tLow, tHigh := r.lastT, r.lastT
	if w.period > 0 {
		tLow, tHigh = c.lastBefore(c.bulkEnd), math.MaxInt64
	}
	final := map[int][]segdiff.SensorMatches{}
	for _, i := range idx {
		f, err := searchCollection(ctx, col, qs[i])
		if err != nil {
			return nil, fmt.Errorf("benchmark: in-process query %d (%s): %w", i, qs[i], err)
		}
		final[i] = f
		rep.rowsSampled += countRows(f)
		err = between(r.sampled[i], f, tLow, tHigh)
		rep.check(err == nil, "query %d (%s): %v", i, qs[i], err)
	}

	// Theorem 1 on the first and the middle sensor.
	checked := []int{0}
	if mid := len(c.sensors) / 2; mid != 0 {
		checked = append(checked, mid)
	}
	for _, si := range checked {
		if err := checkTheorem1(ctx, col, c, si, qs, r.lastT, rep); err != nil {
			return nil, err
		}
	}
	return final, nil
}

const (
	theoremQueries = 5   // selective queries verified per checked sensor
	theoremMaxRows = 300 // keeps the oracle's period checks under a second
)

// checkTheorem1 verifies both halves of Theorem 1 for one sensor on the
// first selective queries of the list (|V| >= 4, 1..theoremMaxRows
// matches): every event the naive scan finds in the ingested points is
// covered, and every reported period holds an event within 2ε.
func checkTheorem1(ctx context.Context, col *segdiff.Collection, c *corpus, si int, qs []query, lastT int64, rep *checkReport) error {
	name := c.sensors[si]
	ix, err := col.Sensor(name)
	if err != nil {
		return err
	}
	segs, err := ix.Segments()
	if err != nil {
		return err
	}
	maxSlope := 0.0
	for _, g := range segs {
		if dt := g.End.Time - g.Start.Time; dt > 0 {
			maxSlope = math.Max(maxSlope, math.Abs((g.End.Value-g.Start.Value)/float64(dt)))
		}
	}
	ingested := c.series[si].Slice(corpusStart, lastT)
	done := 0
	for i, q := range qs {
		if done == theoremQueries {
			break
		}
		if math.Abs(q.V) < 4 {
			continue
		}
		res, err := searchCollection(ctx, col, q, name)
		if err != nil {
			return fmt.Errorf("benchmark: in-process query %d (%s) on %s: %w", i, q, name, err)
		}
		ms := res[0].Matches
		if len(ms) == 0 || len(ms) > theoremMaxRows {
			continue
		}
		periods := make([]crashtest.Period, len(ms))
		for j, m := range ms {
			periods[j] = crashtest.Period{TD: m.From.Start, TC: m.From.End, TB: m.To.Start, TA: m.To.End}
		}
		kind := feature.Drop
		if q.Jump {
			kind = feature.Jump
		}
		err = crashtest.VerifyTheorem1(ingested, kind, int64(q.Span.Seconds()), q.V, periods, maxSlope, epsilon)
		rep.check(err == nil, "Theorem 1, sensor %s, query %d (%s): %v", name, i, q, err)
		done++
	}
	rep.check(done == theoremQueries, "sensor %s: only %d selective queries to verify Theorem 1 on", name, done)
	return nil
}
