package telemetry

import (
	"io"
	"math"
)

// Log is the one in-memory form of a run's telemetry: every event and pool
// sample in emission order, as fixed-size, pointer-free records, rendered
// to JSONL only when WriteJSONL asks and fed to another sink by Replay.
// ReadLog decodes a JSONL log back into one. Holding a run this way costs
// 64 bytes a record instead of a ~120-byte encoded line, puts no encoding
// on the run's path, and gives the garbage collector nothing to scan.
// Detail strings are interned in a per-log table.
//
// Records are stored in chunks: each new chunk doubles the last one's
// capacity, up to maxChunk records, and a record once written is never
// copied, so capture costs one write per record however long the run.
//
// Like every Sink, a Log is written from one goroutine. Close trims the
// last chunk to its exact length (every earlier chunk is full); a closed
// log is immutable, and any number of WriteJSONL and Replay calls may then
// run concurrently.
type Log struct {
	chunks  [][]logRecord     // full chunks, then the one being filled
	details []string          // interned non-empty Detail strings
	index   map[string]uint32 // record detail by string; dropped by Close
}

// Chunk capacities in records: a log's first chunk holds firstChunk, and
// each later one twice its predecessor, up to maxChunk (256 KiB).
const (
	firstChunk = 64
	maxChunk   = 4096
)

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

// add appends r to the current chunk, starting a new one when it is full.
func (l *Log) add(r logRecord) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		size := firstChunk
		if n > 0 {
			size = min(2*cap(l.chunks[n-1]), maxChunk)
		}
		l.chunks = append(l.chunks, make([]logRecord, 0, size))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], r)
}

func (l *Log) Event(e *Event) error {
	l.add(logRecord{
		t:      e.T,
		w:      [6]int64{int64(e.Job), int64(e.Node), int64(e.Lender), e.MB, e.Aux, int64(math.Float64bits(e.V))},
		kind:   e.Kind,
		detail: l.intern(e.Detail),
	})
	return nil
}

func (l *Log) Sample(s *Sample) error {
	l.add(logRecord{
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

// Close trims the last chunk to its exact length and drops the intern
// index, which only writing needs.
func (l *Log) Close() error {
	if n := len(l.chunks); n > 0 && cap(l.chunks[n-1]) > len(l.chunks[n-1]) {
		last := make([]logRecord, len(l.chunks[n-1]))
		copy(last, l.chunks[n-1])
		l.chunks[n-1] = last
	}
	l.index = nil
	return nil
}

// event and sample decode one record; WriteJSONL and Replay both read the
// log through them.
func (l *Log) event(r *logRecord) Event {
	var detail string
	if r.detail != 0 {
		detail = l.details[r.detail-1]
	}
	return Event{
		T: r.t, Kind: r.kind, Job: int(r.w[0]), Node: int(r.w[1]), Lender: int(r.w[2]),
		MB: r.w[3], Aux: r.w[4], V: math.Float64frombits(uint64(r.w[5])),
		Detail: detail,
	}
}

func sample(r *logRecord) Sample {
	return Sample{
		T: r.t, FreeMB: r.w[0], LentMB: r.w[1],
		Queue: int(r.w[2]), Busy: int(r.w[3]), Running: int(r.w[4]),
	}
}

// Replay feeds every record to s in emission order and returns the first
// error s reports. It does not close s.
func (l *Log) Replay(s Sink) error {
	// One event and one sample serve the whole replay: a sink takes them
	// by pointer through an interface, so they live on the heap.
	var e Event
	var sm Sample
	for _, c := range l.chunks {
		for i := range c {
			var err error
			if r := &c[i]; r.sample {
				sm = sample(r)
				err = s.Sample(&sm)
			} else {
				e = l.event(r)
				err = s.Event(&e)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSONL renders the log's chunks in order to w, byte for byte as a
// JSONL sink would have written the same emissions, through the same
// encoder. The scratch buffer and the encoder are the call's own, so
// concurrent renderings of a closed log share nothing writable.
func (l *Log) WriteJSONL(w io.Writer) error {
	const flushAt = 32 << 10
	buf := make([]byte, 0, flushAt+1024)
	var enc encoder
	for _, c := range l.chunks {
		for i := range c {
			if r := &c[i]; r.sample {
				sm := sample(r)
				buf = enc.appendSample(buf, &sm)
			} else {
				e := l.event(r)
				buf = enc.appendEvent(buf, &e)
			}
			if len(buf) >= flushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}
