package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public API, made from the
// benchmark's own files. The rungs of one request are replayed one rung
// at a time, top down, so a span and its parent come from different
// executions of the same request: Start and End are when the call really
// ran, and the tree is the request's path through the layers.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Trace  string `json:"trace"`  // the query or batch, shared by its spans
	Name   string `json:"name"`   // layer.op
	// Sensor is set on the per-sensor rungs below the collection fan-out.
	Sensor  string `json:"sensor,omitempty"`
	StartNS int64  `json:"start_ns"` // since the recorder's epoch
	EndNS   int64  `json:"end_ns"`
	// Counts are read at the same boundary as the times.
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// rung places a span name in the ladder: its parent, and whether it runs
// once per sensor under the collection's fan-out.
type rung struct {
	name, parent string
	perSensor    bool
}

// The two ladders. A rung's parent is the rung that calls it in the
// served path.
var ladder = []rung{
	{name: "client.search"},
	{name: "server.search", parent: "client.search"},
	{name: "collection.search", parent: "server.search"},
	{name: "core.search", parent: "collection.search", perSensor: true},
	{name: "sqlmini.query", parent: "core.search", perSensor: true},

	{name: "client.append"},
	{name: "server.append", parent: "client.append"},
	{name: "collection.append_all", parent: "server.append"},
	{name: "core.append", parent: "collection.append_all", perSensor: true},
	{name: "core.sync", parent: "collection.append_all", perSensor: true},
}

func rungOf(name string) rung {
	for _, r := range ladder {
		if r.name == name {
			return r
		}
	}
	return rung{name: name}
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record times fn as one span. fn returns the counts read at the
// boundary. The span is kept even when fn fails, with the error returned.
func (r *recorder) record(trace, name, sensor string, fn func() (map[string]float64, error)) error {
	start := time.Since(r.epoch)
	counts, err := fn()
	end := time.Since(r.epoch)
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Trace: trace, Name: name, Sensor: sensor,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(), Counts: counts,
	})
	return err
}

// link fills in every span's parent from the ladder: the span of the
// rung above with the same trace (and the same sensor when that rung is
// per sensor too).
func (r *recorder) link() {
	type key struct{ trace, name, sensor string }
	byKey := map[key]int{}
	for _, s := range r.spans {
		byKey[key{s.Trace, s.Name, s.Sensor}] = s.ID
	}
	for i := range r.spans {
		s := &r.spans[i]
		rg := rungOf(s.Name)
		if rg.parent == "" {
			continue
		}
		k := key{trace: s.Trace, name: rg.parent}
		if rungOf(rg.parent).perSensor {
			k.sensor = s.Sensor
		}
		s.Parent = byKey[k]
	}
}

// selfTimes returns each span's self time by span id: its duration minus
// the part its children cover. Children that the served path runs side
// by side — the per-sensor rungs directly under a rung that is not per
// sensor — were replayed one after another, so they cover their sum
// divided by width, the number that really run at once; whatever the
// parent takes beyond that (dispatch, imbalance, merge) is its own.
// Parent and child are separate executions, so one span's self time can
// come out below zero by run-to-run noise; it is the mean over the
// sample that is reported, and that is floored at zero.
func selfTimes(spans []span, width int) map[int]time.Duration {
	if width < 1 {
		width = 1
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := map[int]time.Duration{}
	for _, s := range spans {
		self[s.ID] += s.dur()
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		d := s.dur()
		if rungOf(s.Name).perSensor && !rungOf(p.Name).perSensor {
			d /= time.Duration(width)
		}
		self[p.ID] -= d
	}
	return self
}

// writeSpans writes the recorded spans as JSON.
func (r *recorder) writeSpans(path string) error {
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perTrace sums value over the spans called name, trace by trace, in the
// order the traces were first recorded.
func perTrace(spans []span, name string, value func(span) float64) []float64 {
	at := map[string]int{}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		i, ok := at[s.Trace]
		if !ok {
			i = len(out)
			at[s.Trace] = i
			out = append(out, 0)
		}
		out[i] += value(s)
	}
	return out
}

// spanTotals is the per-trace duration of the spans called name, or
// their self time when self is not nil, in milliseconds.
func spanTotals(spans []span, name string, self map[int]time.Duration) []float64 {
	return perTrace(spans, name, func(s span) float64 {
		if self != nil {
			return ms(self[s.ID])
		}
		return ms(s.dur())
	})
}

// countTotals is the per-trace sum of one count of the spans called name.
func countTotals(spans []span, name, count string) []float64 {
	return perTrace(spans, name, func(s span) float64 { return s.Counts[count] })
}
