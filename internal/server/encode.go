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
// appended with strconv.AppendInt straight into bw's free buffer, which
// is flushed first whenever less than maxMatchBytes of it remains, so no
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
	for i, m := range sm.Matches {
		if bw.Available() < maxMatchBytes {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":{"start":`...)
		b = strconv.AppendInt(b, m.From.Start, 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, m.From.End, 10)
		b = append(b, `},"to":{"start":`...)
		b = strconv.AppendInt(b, m.To.Start, 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, m.To.End, 10)
		b = append(b, "}}"...)
		bw.Write(b)
	}
	_, err := bw.WriteString("]}\n")
	return err
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
