package telemetry

import (
	"io"
	"math"
	"slices"
)

// Log is a compact in-memory capture of one run's telemetry: every event
// and pool sample in emission order, as fixed-size, pointer-free records,
// rendered to JSONL only when WriteJSONL asks. Holding a run this way costs
// 64 bytes a record instead of a ~120-byte encoded line, puts no encoding
// on the run's path, and gives the garbage collector nothing to scan.
// Detail strings are interned in a per-log table.
//
// Like every Sink, a Log is written from one goroutine. Close trims the
// storage to its exact length; a closed log is immutable, and any number
// of WriteJSONL calls may then run concurrently.
type Log struct {
	recs    []logRecord
	details []string          // interned non-empty Detail strings
	index   map[string]uint32 // record detail by string; dropped by Close
}

// logRecord is one event or one sample. An event keeps Job, Node, Lender,
// MB, Aux and the bits of V in w; a sample keeps FreeMB, LentMB, Queue,
// Busy and Running.
type logRecord struct {
	t      float64
	w      [6]int64
	kind   Kind
	sample bool
	detail uint32 // 0 for "", else 1 + its index in Log.details
}

func (l *Log) Event(e *Event) error {
	l.recs = append(l.recs, logRecord{
		t:      e.T,
		w:      [6]int64{int64(e.Job), int64(e.Node), int64(e.Lender), e.MB, e.Aux, int64(math.Float64bits(e.V))},
		kind:   e.Kind,
		detail: l.intern(e.Detail),
	})
	return nil
}

func (l *Log) Sample(s *Sample) error {
	l.recs = append(l.recs, logRecord{
		t:      s.T,
		w:      [6]int64{s.FreeMB, s.LentMB, int64(s.Queue), int64(s.Busy), int64(s.Running)},
		sample: true,
	})
	return nil
}

// intern returns the record's detail field for d, adding d to the table
// on first sight.
func (l *Log) intern(d string) uint32 {
	if d == "" {
		return 0
	}
	if i, ok := l.index[d]; ok {
		return i
	}
	if l.index == nil {
		l.index = make(map[string]uint32)
	}
	l.details = append(l.details, d)
	i := uint32(len(l.details))
	l.index[d] = i
	return i
}

// Close trims the records to their exact length and drops the intern
// index, which only writing needs.
func (l *Log) Close() error {
	if cap(l.recs) > len(l.recs) {
		l.recs = slices.Clone(l.recs)
	}
	l.index = nil
	return nil
}

// WriteJSONL renders the log to w byte for byte as a JSONL sink would have
// written the same emissions, through the same encoder. The scratch buffer
// is the call's own, so concurrent renderings of a closed log share
// nothing writable.
func (l *Log) WriteJSONL(w io.Writer) error {
	const flushAt = 32 << 10
	buf := make([]byte, 0, flushAt+1024)
	for i := range l.recs {
		r := &l.recs[i]
		if r.sample {
			buf = appendSample(buf, &Sample{
				T: r.t, FreeMB: r.w[0], LentMB: r.w[1],
				Queue: int(r.w[2]), Busy: int(r.w[3]), Running: int(r.w[4]),
			})
		} else {
			var detail string
			if r.detail != 0 {
				detail = l.details[r.detail-1]
			}
			buf = appendEvent(buf, &Event{
				T: r.t, Kind: r.kind, Job: int(r.w[0]), Node: int(r.w[1]), Lender: int(r.w[2]),
				MB: r.w[3], Aux: r.w[4], V: math.Float64frombits(uint64(r.w[5])),
				Detail: detail,
			})
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}
