package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"segdiff"
	"segdiff/internal/smooth"
	"segdiff/internal/synth"
	"segdiff/internal/timeseries"
)

const (
	// corpusStart is 2005-12-01 00:00 UTC, the first day of the paper's
	// CAD transect recording; synth's seasonal phase depends on it.
	corpusStart = 1133395200
	hour        = int64(3600)
	day         = 24 * hour
	// bulkChunkDays is the span one bulk-load request covers. It is the
	// batch granularity setup_s measures; ingest-stream measures the other
	// end (one hour).
	bulkChunkDays = 30
)

// corpus is one workload's generated input: the smoothed series of every
// sensor, split into a bulk-loaded prefix and an hourly streamed tail.
type corpus struct {
	sensors []string
	series  []*timeseries.Series // smoothed; bulk prefix + streamed tail
	bulkEnd int64                // points with T < bulkEnd are bulk-loaded
	// fingerprint is the SHA-256 over every generated point, in sensor
	// then time order.
	fingerprint string
}

// generateCorpus builds sensors × (bulkHours + streamHours) of 5-minute
// CAD data. The sensors are the centre of a transect two sensors wider,
// so none sits on the canyon rim where synth damps the drainage events
// the queries look for. Everything is a pure function of seed.
func generateCorpus(seed int64, sensors, bulkHours, streamHours int) (*corpus, error) {
	dur := int64(bulkHours+streamHours) * hour
	raw, _, err := synth.GenerateTransect(synth.Config{
		Seed:     seed,
		Start:    corpusStart,
		Duration: dur,
	}, sensors+2)
	if err != nil {
		return nil, err
	}
	c := &corpus{bulkEnd: corpusStart + int64(bulkHours)*hour}
	h := sha256.New()
	var buf [16]byte
	for i, s := range raw[1 : sensors+1] {
		sm, err := smooth.Robust(s, smooth.Config{})
		if err != nil {
			return nil, err
		}
		c.sensors = append(c.sensors, fmt.Sprintf("s%02d", i))
		c.series = append(c.series, sm)
		for _, p := range sm.Points() {
			binary.LittleEndian.PutUint64(buf[:8], uint64(p.T))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.V))
			h.Write(buf[:])
		}
	}
	c.fingerprint = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

// lastBefore is the newest generated timestamp below t (every sensor
// samples the same grid), 0 when there is none.
func (c *corpus) lastBefore(t int64) int64 {
	sl := c.series[0].Slice(corpusStart, t-1)
	if sl.Len() == 0 {
		return 0
	}
	return sl.End()
}

// points counts observations with from <= T < to across all sensors.
func (c *corpus) points(from, to int64) int {
	n := 0
	for _, s := range c.series {
		n += s.Slice(from, to-1).Len()
	}
	return n
}

// batch returns one append request: every sensor's points with
// from <= T < to. Sensors with no point in the range are left out.
func (c *corpus) batch(from, to int64) []segdiff.SensorBatch {
	var out []segdiff.SensorBatch
	for i, s := range c.series {
		// Slice is inclusive on both ends; timestamps are integral.
		sl := s.Slice(from, to-1).Points()
		if len(sl) == 0 {
			continue
		}
		pts := make([]segdiff.Point, len(sl))
		for j, p := range sl {
			pts[j] = segdiff.Point{Time: p.T, Value: p.V}
		}
		out = append(out, segdiff.SensorBatch{Sensor: c.sensors[i], Points: pts})
	}
	return out
}

// chunks is a bulk-load request sequence over [from, to): bulkChunkDays
// at a time.
func (c *corpus) chunks(from, to int64) [][]segdiff.SensorBatch {
	var out [][]segdiff.SensorBatch
	for ; from < to; from += bulkChunkDays * day {
		end := from + bulkChunkDays*day
		if end > to {
			end = to
		}
		out = append(out, c.batch(from, end))
	}
	return out
}

// streamBatches is the hourly append sequence that follows the bulk load.
func (c *corpus) streamBatches(n int) [][]segdiff.SensorBatch {
	out := make([][]segdiff.SensorBatch, n)
	for i := range out {
		from := c.bulkEnd + int64(i)*hour
		out[i] = c.batch(from, from+hour)
	}
	return out
}

// query is one drop or jump search of the list Q.
type query struct {
	Jump bool
	Span time.Duration
	V    float64 // negative for drops, positive for jumps
}

func (q query) String() string {
	kind := "drop"
	if q.Jump {
		kind = "jump"
	}
	return fmt.Sprintf("%s span=%s v=%.3f", kind, q.Span, q.V)
}

// generateQueries returns the first n queries of the list Q, drawn from
// the paper's §6.4 ranges: T log-uniform on [10 min, 8 h], |V| uniform on
// [2, 12], one in five a jump. The draws are the R3 low-discrepancy
// sequence, not a random stream: marginals and joint coverage are those
// of independent uniforms, but every prefix and every window of the list
// covers the (T, V) plane evenly, so the share of empty, selective and
// broad queries — and with it the tail percentiles — does not depend on
// how far a time-bounded reader gets through the list. The list is the
// same for every seed: the seed varies the data, and a list that varied
// with it made the tail percentiles swing by a further tenth from seed to
// seed on top of what the data does.
func generateQueries(n int) []query {
	const g = 1.2207440846057596 // real root of x^4 = x + 1
	a := [3]float64{1 / g, 1 / (g * g), 1 / (g * g * g)}
	frac := func(d, i int) float64 {
		_, f := math.Modf(0.5 + a[d]*float64(i+1))
		return f
	}
	lo, hi := math.Log(600), math.Log(28800)
	out := make([]query, n)
	for i := range out {
		T := math.Floor(math.Exp(lo + (hi-lo)*frac(0, i)))
		v := 2 + 10*frac(1, i)
		q := query{Span: time.Duration(T) * time.Second, V: -v}
		if frac(2, i) < 0.2 {
			q.Jump, q.V = true, v
		}
		out[i] = q
	}
	return out
}
