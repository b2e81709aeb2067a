package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"strings"
	"testing"
	"time"

	"segdiff"
)

// FuzzSearchParams throws arbitrary query strings at the three query
// decoders. The contract under fuzzing: never panic, and every
// rejection is an *httpError carrying a 4xx — malformed input must not
// be able to reach the engine or map to a 5xx.
func FuzzSearchParams(f *testing.F) {
	for _, seed := range []string{
		"span=1h&v=-3",
		"span=3600&v=-0.5&sensors=alpha,beta",
		"span=1h&v=3&kind=jump&sensor=alpha",
		"span=&v=",
		"span=banana&v=NaN",
		"span=-1h&v=-1e308&timeout=0",
		"span=99999999999999999999&v=-3",
		"span=1h&v=-3&sensors=,,,",
		"span=1h&v=-3&timeout=banana",
		"v=%zz&span=%zz",
		"span=1h&v=-3&sensors=" + strings.Repeat("a", 300),
		"kind=dip&sensor=x&span=1s&v=-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return // not even a query string; nothing to decode
		}
		check := func(what string, err error) {
			if err == nil {
				return
			}
			var he *httpError
			if !errors.As(err, &he) {
				t.Fatalf("%s(%q) returned a non-http error: %v", what, raw, err)
			}
			if he.code < 400 || he.code > 499 {
				t.Fatalf("%s(%q) mapped to %d, want 4xx", what, raw, he.code)
			}
		}
		for _, jump := range []bool{false, true} {
			_, err := parseSearchParams(q, jump, 8*time.Hour)
			check("parseSearchParams", err)
		}
		_, err = parseExplainParams(q, 8*time.Hour)
		check("parseExplainParams", err)
		_, err = parseTimeout(q, 30*time.Second, 2*time.Minute)
		check("parseTimeout", err)
	})
}

// FuzzAppendBody throws arbitrary bytes at the append body decoder.
// Same contract: no panic, rejections are 4xx httpErrors, and — since
// the decoder is the only gate before Collection.AppendAll — anything
// it accepts must be structurally valid batches.
func FuzzAppendBody(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`[{"sensor":"alpha","points":[{"t":0,"v":1.5},{"t":60,"v":2}]}]`,
		`[{"sensor":"alpha","points":[]}]`,
		`[{"sensor":"bad name","points":[]}]`,
		`[{"sensor":"x","points":[{"t":0,"v":1}],"extra":true}]`,
		`[] trailing`,
		`{"sensor":"x"}`,
		`[{"sensor":"x","points":[{"t":0,"v":1e999}]}]`,
		`[[[[`,
		`null`,
		"\x00\x01\x02",
		`[{"sensor":"` + strings.Repeat("s", 9000) + `","points":[]}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, err := decodeAppendBody(strings.NewReader(string(data)))
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) {
				t.Fatalf("decodeAppendBody(%q) returned a non-http error: %v", data, err)
			}
			if he.code < 400 || he.code > 499 {
				t.Fatalf("decodeAppendBody(%q) mapped to %d, want 4xx", data, he.code)
			}
			return
		}
		for _, b := range batches {
			if !segdiff.ValidSensorName(b.Sensor) {
				t.Fatalf("decoder accepted invalid sensor name %q", b.Sensor)
			}
		}
	})
}

// maxFuzzMatches caps the match slices FuzzAppendSensorMatches builds.
const maxFuzzMatches = 100_000

// FuzzAppendSensorMatches judges the hand encoder of /v1/drops and
// /v1/jumps against encoding/json: for any sensor string (every valid
// name, and the escaping fallback for the rest), nil, empty and long
// match slices, runs of 1 + run matches sharing their "to" interval, any
// int64s and any write buffer size, the line it writes must be
// byte-identical to json.NewEncoder(...).Encode of the same
// SensorMatches. testdata/fuzz holds the checked-in corpus: nil and empty
// slices, 10⁵ matches of extreme int64s, a 17-byte buffer, an escaped
// name, and runs of equal "to" intervals across buffer flushes.
func FuzzAppendSensorMatches(f *testing.F) {
	for _, s := range []struct {
		sensor     string
		n          uint32
		nilMatches bool
		a, b, c, d int64
		bufSize    uint16
		run        uint8
	}{
		{"alpha", 3, false, 0, 60, 120, 180, 0, 0},
		{"neg", 1000, false, -86400, -1, math.MinInt64 + 7, 3, 16, 0},
		{strings.Repeat("a", 300), 40, false, math.MaxInt64, 0, 1, -1, 1, 0},
		{"<a&b>", 2, false, 1, 2, 3, 4, 0, 0},
		{"quo\"te\\n\x00\u2028\xff é", 1, false, 5, 6, 7, 8, 0, 0},
		{"", 0, true, 0, 0, 0, 0, 0, 0},
		{"runs", 700, false, 1_700_000_000, 1_700_000_600, 1_700_003_000, 1_700_003_600, 512, 6},
	} {
		f.Add(s.sensor, s.n, s.nilMatches, s.a, s.b, s.c, s.d, s.bufSize, s.run)
	}
	f.Fuzz(func(t *testing.T, sensor string, n uint32, nilMatches bool, a, b, c, d int64, bufSize uint16, run uint8) {
		sm := segdiff.SensorMatches{Sensor: sensor}
		if !nilMatches {
			sm.Matches = make([]segdiff.Match, n%(maxFuzzMatches+1))
			for i := range sm.Matches {
				k := int64(i)
				e := k / (1 + int64(run)) // the end segment's index
				sm.Matches[i] = segdiff.Match{
					From: segdiff.Interval{Start: a + k, End: b - k},
					To:   segdiff.Interval{Start: c ^ e, End: d * e},
				}
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(sm); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		bw := bufio.NewWriterSize(&got, int(bufSize))
		if err := appendSensorMatches(bw, sm); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < min(len(g), len(w)) && g[i] == w[i] {
				i++
			}
			t.Fatalf("sensor %q, %d matches: encoder wrote %d bytes, encoding/json %d; first difference at byte %d: %q vs %q",
				sensor, len(sm.Matches), len(g), len(w), i, g[i:min(len(g), i+40)], w[i:min(len(w), i+40)])
		}
	})
}
