package main

import (
	"testing"
	"time"
)

func TestCorpusFingerprint(t *testing.T) {
	a, err := generateCorpus(7, 2, 48, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateCorpus(7, 2, 48, 6)
	if err != nil {
		t.Fatal(err)
	}
	other, err := generateCorpus(8, 2, 48, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint != b.fingerprint {
		t.Errorf("same seed, different fingerprints: %s vs %s", a.fingerprint, b.fingerprint)
	}
	if a.fingerprint == other.fingerprint {
		t.Errorf("seeds 7 and 8 share fingerprint %s", a.fingerprint)
	}
	if len(a.fingerprint) != 64 {
		t.Errorf("fingerprint %q is not a SHA-256", a.fingerprint)
	}

	// The bulk chunks and the hourly batches partition the points.
	bulk := 0
	for _, chunk := range a.chunks(corpusStart, a.bulkEnd) {
		for _, sb := range chunk {
			bulk += len(sb.Points)
		}
	}
	if want := 2 * 48 * 12; bulk != want {
		t.Errorf("bulk load holds %d points, want %d", bulk, want)
	}
	batches := a.streamBatches(6)
	for i, batch := range batches {
		if len(batch) != 2 {
			t.Fatalf("batch %d names %d sensors, want 2", i, len(batch))
		}
		for _, sb := range batch {
			if len(sb.Points) != 12 {
				t.Errorf("batch %d, sensor %s: %d points, want 12", i, sb.Sensor, len(sb.Points))
			}
			if first := sb.Points[0].Time; first != a.bulkEnd+int64(i)*hour {
				t.Errorf("batch %d starts at %d, want %d", i, first, a.bulkEnd+int64(i)*hour)
			}
		}
	}
	if got, want := a.lastBefore(a.bulkEnd), a.bulkEnd-300; got != want {
		t.Errorf("last bulk timestamp = %d, want %d", got, want)
	}
}

func TestQueryList(t *testing.T) {
	qs := generateQueries(300)
	again := generateQueries(300)
	jumps := 0
	for i, q := range qs {
		if q != again[i] {
			t.Fatalf("query %d differs between two draws", i)
		}
		if q.Span < 10*time.Minute || q.Span > 8*time.Hour {
			t.Errorf("query %d: span %v outside [10m, 8h]", i, q.Span)
		}
		v := q.V
		if q.Jump {
			jumps++
		} else {
			v = -v
		}
		if v < 2 || v > 12 {
			t.Errorf("query %d: |V| = %g outside [2, 12] (jump=%v)", i, v, q.Jump)
		}
	}
	if jumps < 45 || jumps > 75 {
		t.Errorf("%d of 300 queries are jumps, want about one in five", jumps)
	}
	// A prefix is the same list: warm-up and time-bounded readers see
	// what a longer run sees.
	for i, q := range generateQueries(60) {
		if q != qs[i] {
			t.Fatalf("query %d of the 60-prefix differs from the 300-list", i)
		}
	}
}

func TestScaledCounts(t *testing.T) {
	w, _ := findWorkload("query-wide")
	if s := w.scaled(referenceSeconds); s.queries != w.queries || s.appends != w.appends {
		t.Errorf("the reference length must not rescale: %+v", s)
	}
	if s := w.scaled(2 * referenceSeconds); s.queries != 2*w.queries || s.appends != 2*w.appends {
		t.Errorf("doubling -seconds must double the counts: %+v", s)
	}
	if s := w.scaled(1); s.queries < 1 || s.appends < 1 {
		t.Errorf("counts must stay positive: %+v", s)
	}
}
