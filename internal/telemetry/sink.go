package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Sink receives the event stream and the sampler output. Calls arrive in
// emission order from the single-threaded simulation loop; implementations
// need no locking. Errors are captured by the Recorder and surfaced from
// Close, so one failed write does not abort the simulation.
type Sink interface {
	Event(e *Event) error
	Sample(s *Sample) error
	Close() error
}

// --------------------------------------------------------------- MultiSink

// MultiSink fans every record out to each child sink. The first error per
// call is returned; later children still run.
type MultiSink []Sink

func (m MultiSink) Event(e *Event) error {
	var first error
	for _, s := range m {
		if err := s.Event(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m MultiSink) Sample(s *Sample) error {
	var first error
	for _, c := range m {
		if err := c.Sample(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ------------------------------------------------------------------ JSONL

// JSONL streams one JSON object per line. The encoder is hand-rolled with a
// fixed field order and strconv float formatting, so identical runs produce
// byte-identical logs — the determinism guarantee the golden digest test
// locks. The non-finite reservation times a BackfillHole can carry are
// encoded in the "v" field as a JSON string ("+Inf"), which ParseFloat
// round-trips, and Detail is escaped as encoding/json escapes a string, so
// ReadLog reads back every line the encoder writes.
//
// Event lines:
//
//	{"t":1200,"ev":"lease_grant","job":7,"node":3,"lender":12,"mb":2048,"aux":0,"v":"0","detail":""}
//
// Sample lines:
//
//	{"t":300,"ev":"pool_sample","free_mb":1048576,"lent_mb":8192,"queue":4,"busy":28,"running":9}
type JSONL struct {
	w   *bufio.Writer
	c   io.Closer // closed on Close when the destination is a closer
	buf []byte
	enc encoder
}

// NewJSONL returns a buffered JSONL sink writing to w. Close flushes and,
// when w is also an io.Closer (a file), closes it.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

func (j *JSONL) Event(e *Event) error {
	j.buf = j.enc.appendEvent(j.buf[:0], e)
	_, err := j.w.Write(j.buf)
	return err
}

func (j *JSONL) Sample(s *Sample) error {
	j.buf = j.enc.appendSample(j.buf[:0], s)
	_, err := j.w.Write(j.buf)
	return err
}

// encoder is the package's one line encoder: the JSONL sink and
// Log.WriteJSONL both render through it, so a line reads the same whichever
// road it took. Each stream holds its own. A stream repeats most of its
// floats from one line to the next (events at one instant share T, and a
// run's backfill holes mostly repeat one reservation time), so the encoder
// keeps the text it last wrote for T and for a non-zero V and copies it
// when the bits repeat. Equal bits always format to the same text, so the
// caches cannot change a byte.
type encoder struct {
	t, v floatText
}

// floatText is the shortest 'g' text of the float whose bits it last
// formatted. That text is at most 24 bytes ("-2.2250738585072014e-308").
type floatText struct {
	bits uint64
	n    uint8 // text length; 0 until the first float
	text [24]byte
}

// append appends f's shortest 'g' text to b, formatting it only when its
// bits differ from the last float's.
func (c *floatText) append(b []byte, f float64) []byte {
	if bits := math.Float64bits(f); c.n == 0 || bits != c.bits {
		c.bits, c.n = bits, uint8(len(strconv.AppendFloat(c.text[:0], f, 'g', -1, 64)))
	}
	return append(b, c.text[:c.n]...)
}

func (c *encoder) appendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"t":`...)
	b = c.t.append(b, e.T)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","job":`...)
	b = strconv.AppendInt(b, int64(e.Job), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"lender":`...)
	b = strconv.AppendInt(b, int64(e.Lender), 10)
	b = append(b, `,"mb":`...)
	b = strconv.AppendInt(b, e.MB, 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, e.Aux, 10)
	b = append(b, `,"v":"`...)
	if math.Float64bits(e.V) == 0 { // +0, most events' V; -0 is formatted
		b = append(b, '0')
	} else {
		b = c.v.append(b, e.V)
	}
	b = append(b, `","detail":`...)
	b = appendString(b, e.Detail)
	return append(b, "}\n"...)
}

func (c *encoder) appendSample(b []byte, s *Sample) []byte {
	b = append(b, `{"t":`...)
	b = c.t.append(b, s.T)
	b = append(b, `,"ev":"pool_sample","free_mb":`...)
	b = strconv.AppendInt(b, s.FreeMB, 10)
	b = append(b, `,"lent_mb":`...)
	b = strconv.AppendInt(b, s.LentMB, 10)
	b = append(b, `,"queue":`...)
	b = strconv.AppendInt(b, int64(s.Queue), 10)
	b = append(b, `,"busy":`...)
	b = strconv.AppendInt(b, int64(s.Busy), 10)
	b = append(b, `,"running":`...)
	b = strconv.AppendInt(b, int64(s.Running), 10)
	return append(b, "}\n"...)
}

// appendString appends s to b as a JSON string, escaped byte for byte as
// encoding/json escapes it with HTML escaping off: '"', '\' and control
// characters are escaped, U+2028 and U+2029 are written as \u escapes, and
// each byte of invalid UTF-8 becomes \ufffd. Plain ASCII, every detail the
// simulator emits, is scanned once and copied whole.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
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
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

func (j *JSONL) Close() error {
	err := j.w.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

var (
	_ Sink = (MultiSink)(nil)
	_ Sink = (*JSONL)(nil)
	_ Sink = (*Log)(nil)
)
