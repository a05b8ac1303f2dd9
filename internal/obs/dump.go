package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"legato/internal/trace"
)

// ---------------------------------------------------------------------------
// Session dump (the legato-trace interchange format)
// ---------------------------------------------------------------------------

// SessionDump is the self-contained export of one session: every merged
// tracer span and counter, the full registry snapshot, and (when the
// session recorded one) the ordered event log. legato-trace loads this
// and converts to any exporter format.
type SessionDump struct {
	Name     string                        `json:"name,omitempty"`
	Spans    []trace.Span                  `json:"spans"`
	Counters map[string]float64            `json:"counters,omitempty"`
	Metrics  map[string]map[string]float64 `json:"metrics,omitempty"`
	Events   []Event                       `json:"events,omitempty"`
}

// dumpChunk is the size of Encode's one buffer. Encode hands the buffer
// to the writer whenever an element boundary finds it within dumpSlack
// of full, so memory stays flat however long the session ran.
const (
	dumpChunk = 64 << 10
	dumpSlack = 4 << 10
)

// Encode writes the dump as indented JSON. The bytes are exactly those of
// encoding/json's Encoder with SetIndent("", " ") — the struct tags above
// name the keys — but the document is streamed element by element through
// one fixed buffer, with no reflection and no indentation pass
// (FuzzSessionDumpEncode pins the bytes to that reference). Like the
// reference, it rejects a NaN or infinite value before writing anything.
// A writer error stops the stream at the failing chunk.
func (d *SessionDump) Encode(w io.Writer) error {
	if err := d.checkFinite(); err != nil {
		return err
	}
	e := dumpWriter{w: w, buf: make([]byte, 0, dumpChunk)}
	e.buf = append(e.buf, '{')
	if d.Name != "" {
		e.buf = append(e.buf, "\n \"name\": "...)
		e.buf = appendDumpString(e.buf, d.Name)
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, "\n \"spans\": "...)
	switch {
	case d.Spans == nil:
		e.buf = append(e.buf, "null"...)
	case len(d.Spans) == 0:
		e.buf = append(e.buf, "[]"...)
	default:
		e.buf = append(e.buf, '[')
		for i := range d.Spans {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = appendDumpSpan(e.buf, &d.Spans[i])
			if !e.room() {
				return e.err
			}
		}
		e.buf = append(e.buf, "\n ]"...)
	}
	if len(d.Counters) > 0 {
		e.buf = append(e.buf, ",\n \"counters\": "...)
		e.buf = appendDumpFloats(e.buf, d.Counters, "\n  ")
	}
	if len(d.Metrics) > 0 {
		e.buf = append(e.buf, ",\n \"metrics\": {"...)
		for i, scope := range sortedKeys(d.Metrics) {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, "\n  "...)
			e.buf = appendDumpString(e.buf, scope)
			e.buf = append(e.buf, ": "...)
			if m := d.Metrics[scope]; m == nil {
				e.buf = append(e.buf, "null"...)
			} else {
				e.buf = appendDumpFloats(e.buf, m, "\n   ")
			}
			if !e.room() {
				return e.err
			}
		}
		e.buf = append(e.buf, "\n }"...)
	}
	if len(d.Events) > 0 {
		e.buf = append(e.buf, ",\n \"events\": ["...)
		for i := range d.Events {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = appendDumpEvent(e.buf, &d.Events[i])
			if !e.room() {
				return e.err
			}
		}
		e.buf = append(e.buf, "\n ]"...)
	}
	e.buf = append(e.buf, "\n}\n"...)
	e.flush()
	return e.err
}

// DecodeSession reads a dump written by Encode.
func DecodeSession(r io.Reader) (*SessionDump, error) {
	var d SessionDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: decoding session dump: %w", err)
	}
	return &d, nil
}

// dumpWriter is Encode's chunked sink. After the first write error it
// writes nothing more.
type dumpWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// flush hands the buffered bytes to the writer.
func (e *dumpWriter) flush() {
	if e.err != nil || len(e.buf) == 0 {
		return
	}
	n, err := e.w.Write(e.buf)
	if err == nil && n < len(e.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		e.err = fmt.Errorf("obs: writing session dump: %w", err)
	}
	e.buf = e.buf[:0]
}

// room flushes a nearly full buffer and reports whether encoding should
// go on (no write has failed).
func (e *dumpWriter) room() bool {
	if len(e.buf) >= dumpChunk-dumpSlack {
		e.flush()
	}
	return e.err == nil
}

// checkFinite rejects the values JSON cannot represent, naming the first
// in document order: map keys are walked sorted, as Encode writes them.
func (d *SessionDump) checkFinite() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	unsupported := func(v float64, at string) error {
		return fmt.Errorf("obs: encoding session dump: unsupported value %s at %s",
			strconv.FormatFloat(v, 'g', -1, 64), at)
	}
	for i := range d.Spans {
		if v := d.Spans[i].Value; bad(v) {
			return unsupported(v, fmt.Sprintf("spans[%d]", i))
		}
	}
	for _, k := range sortedKeys(d.Counters) {
		if v := d.Counters[k]; bad(v) {
			return unsupported(v, fmt.Sprintf("counters[%q]", k))
		}
	}
	for _, scope := range sortedKeys(d.Metrics) {
		m := d.Metrics[scope]
		for _, k := range sortedKeys(m) {
			if v := m[k]; bad(v) {
				return unsupported(v, fmt.Sprintf("metrics[%q][%q]", scope, k))
			}
		}
	}
	for i := range d.Events {
		if v := d.Events[i].Value; bad(v) {
			return unsupported(v, fmt.Sprintf("events[%d]", i))
		}
	}
	return nil
}

// appendDumpSpan appends one element of the "spans" array. trace.Span
// carries no tags, so its keys are the Go field names and none is
// omitted.
func appendDumpSpan(b []byte, s *trace.Span) []byte {
	b = append(b, "\n  {\n   \"Name\": "...)
	b = appendDumpString(b, s.Name)
	b = append(b, ",\n   \"Category\": "...)
	b = appendDumpString(b, s.Category)
	b = append(b, ",\n   \"Resource\": "...)
	b = appendDumpString(b, s.Resource)
	b = append(b, ",\n   \"Start\": "...)
	b = strconv.AppendInt(b, int64(s.Start), 10)
	b = append(b, ",\n   \"End\": "...)
	b = strconv.AppendInt(b, int64(s.End), 10)
	b = append(b, ",\n   \"Value\": "...)
	b = appendDumpFloat(b, s.Value)
	return append(b, "\n  }"...)
}

// appendDumpEvent appends one element of the "events" array, omitting
// the empty fields Event's omitempty tags name.
func appendDumpEvent(b []byte, ev *Event) []byte {
	b = append(b, "\n  {\n   \"seq\": "...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, ",\n   \"at\": "...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, ",\n   \"kind\": "...)
	b = appendDumpString(b, ev.Kind.String())
	if ev.Job != "" {
		b = append(b, ",\n   \"job\": "...)
		b = appendDumpString(b, ev.Job)
	}
	if ev.Task != "" {
		b = append(b, ",\n   \"task\": "...)
		b = appendDumpString(b, ev.Task)
	}
	if ev.Device != "" {
		b = append(b, ",\n   \"device\": "...)
		b = appendDumpString(b, ev.Device)
	}
	if ev.Value != 0 {
		b = append(b, ",\n   \"value\": "...)
		b = appendDumpFloat(b, ev.Value)
	}
	if ev.Detail != "" {
		b = append(b, ",\n   \"detail\": "...)
		b = appendDumpString(b, ev.Detail)
	}
	return append(b, "\n  }"...)
}

// appendDumpFloats appends a float map as an object with sorted keys
// whose members start with indent (a newline and the member depth); the
// closing brace sits one level out. An empty map is "{}".
func appendDumpFloats(b []byte, m map[string]float64, indent string) []byte {
	if len(m) == 0 {
		return append(b, "{}"...)
	}
	b = append(b, '{')
	for i, k := range sortedKeys(m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent...)
		b = appendDumpString(b, k)
		b = append(b, ": "...)
		b = appendDumpFloat(b, m[k])
	}
	b = append(b, indent[:len(indent)-1]...)
	return append(b, '}')
}

// sortedKeys returns the map's keys in encoding/json's order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendDumpFloat formats a finite float as encoding/json does: 'f'
// notation, switching to 'e' outside [1e-6, 1e21), with a two-digit
// negative exponent trimmed (e-07 → e-7).
func appendDumpFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// dumpSafe marks the ASCII bytes a dump string carries unescaped: the
// printable range minus the quote, the backslash and, as encoding/json
// escapes HTML by default, '<', '>' and '&'.
var dumpSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const dumpHex = "0123456789abcdef"

// appendDumpString appends s as a quoted JSON string escaped as
// encoding/json does: short escapes for \b \f \n \r \t, \u00XX for other
// control bytes and '<' '>' '&', \ufffd for each invalid UTF-8 byte, and
// \u2028 and \u2029 for the JavaScript line separators.
func appendDumpString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if dumpSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', dumpHex[c>>4], dumpHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', dumpHex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
