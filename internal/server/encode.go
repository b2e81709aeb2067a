package server

import (
	"bufio"
	"encoding/json"
	"strconv"

	"segdiff"
)

// maxMatchBytes bounds the text of one encoded match, its leading comma
// and four int64s of the widest form included.
const maxMatchBytes = len(`,{"from":{"start":,"end":},"to":{"start":,"end":}}`) + 4*len("-9223372036854775808")

// appendSensorMatches writes sm to bw as one NDJSON line, byte-identical
// to json.NewEncoder(bw).Encode(sm), without reflection: each match is
// appended with appendTime straight into bw's free buffer, which is
// flushed first whenever less than maxMatchBytes of it remains, so no
// line is ever built on its own. bw's errors are sticky, so the last
// write reports any earlier one.
func appendSensorMatches(bw *bufio.Writer, sm segdiff.SensorMatches) error {
	bw.WriteString(`{"sensor":`)
	if jsonSafe(sm.Sensor) {
		bw.WriteByte('"')
		bw.WriteString(sm.Sensor)
		bw.WriteByte('"')
	} else {
		// Valid sensor names never get here; other strings take the
		// standard encoding (escapes, invalid UTF-8) unchanged.
		name, err := json.Marshal(sm.Sensor)
		if err != nil {
			return err
		}
		bw.Write(name)
	}
	if sm.Matches == nil {
		_, err := bw.WriteString(`,"matches":null}` + "\n")
		return err
	}
	bw.WriteString(`,"matches":[`)
	for i := 0; i < len(sm.Matches); {
		if bw.Available() < maxMatchBytes {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		// Fill the free buffer with as many matches as surely fit.
		b := bw.AvailableBuffer()
		// Matches come grouped by end segment, so a run of them shares
		// its "to" interval: b[toAt:toAt+toLen] holds the text of the
		// previous match's, once it is in this buffer, for the next to
		// copy.
		toAt, toLen := -1, 0
		for more := true; more && i < len(sm.Matches); more = cap(b)-len(b) >= maxMatchBytes {
			if i > 0 {
				b = append(b, ',')
			}
			m := sm.Matches[i]
			b = append(b, `{"from":{"start":`...)
			b = appendTime(b, m.From.Start)
			b = append(b, `,"end":`...)
			b = appendTime(b, m.From.End)
			b = append(b, `},"to":{"start":`...)
			if toAt >= 0 && m.To == sm.Matches[i-1].To {
				b = append(b, b[toAt:toAt+toLen]...)
			} else {
				toAt = len(b)
				b = appendTime(b, m.To.Start)
				b = append(b, `,"end":`...)
				b = appendTime(b, m.To.End)
				toLen = len(b) - toAt
			}
			b = append(b, "}}"...)
			i++
		}
		bw.Write(b)
	}
	_, err := bw.WriteString("]}\n")
	return err
}

// digitPairs holds "00" to "99", two decimal digits per lookup.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendTime appends v in decimal, exactly as strconv.AppendInt(b, v, 10)
// does. A value in [10⁹, 10¹⁰), which is every Unix-second time from
// 2001 to 2286, has ten digits and no sign, so it is written in place as
// two five-digit halves; any other value takes strconv.AppendInt.
func appendTime(b []byte, v int64) []byte {
	if v < 1e9 || v >= 1e10 {
		return strconv.AppendInt(b, v, 10)
	}
	n := len(b)
	b = append(b, "0000000000"...)
	put5(b[n:n+5], uint32(v/1e5))
	put5(b[n+5:n+10], uint32(v%1e5))
	return b
}

// put5 writes x < 10⁵ into d as five decimal digits.
func put5(d []byte, x uint32) {
	_ = d[4]
	q := x / 100
	r := 2 * (x - 100*q)
	d[3], d[4] = digitPairs[r], digitPairs[r+1]
	x, q = q, q/100
	r = 2 * (x - 100*q)
	d[1], d[2] = digitPairs[r], digitPairs[r+1]
	d[0] = byte('0' + q)
}

// jsonSafe reports whether encoding/json writes s as a string by quoting
// it alone: printable ASCII without the quote, the backslash and the
// characters its HTML-safe escaping replaces.
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
