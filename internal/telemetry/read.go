package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// record is the union wire shape of one JSONL line.
type record struct {
	T      float64 `json:"t"`
	Ev     string  `json:"ev"`
	Job    int     `json:"job"`
	Node   int     `json:"node"`
	Lender int     `json:"lender"`
	MB     int64   `json:"mb"`
	Aux    int64   `json:"aux"`
	V      string  `json:"v"`
	Detail string  `json:"detail"`

	FreeMB  int64 `json:"free_mb"`
	LentMB  int64 `json:"lent_mb"`
	Queue   int   `json:"queue"`
	Busy    int   `json:"busy"`
	Running int   `json:"running"`
}

// ReadLog decodes a JSONL event log written by the JSONL sink into a closed
// Log, events and samples in the order the lines hold them, so the log
// renders back through WriteJSONL byte for byte. Unknown event names are an
// error: the log format is versioned by its names, and silently dropping
// records would make summaries lie.
func ReadLog(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	log := &Log{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %v", line, err)
		}
		if rec.Ev == "pool_sample" {
			_ = log.Sample(&Sample{
				T: rec.T, FreeMB: rec.FreeMB, LentMB: rec.LentMB,
				Queue: rec.Queue, Busy: rec.Busy, Running: rec.Running,
			})
			continue
		}
		kind, ok := KindByName(rec.Ev)
		if !ok {
			return nil, fmt.Errorf("telemetry: line %d: unknown event %q", line, rec.Ev)
		}
		v := 0.0
		if rec.V != "" {
			parsed, err := strconv.ParseFloat(rec.V, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: bad v %q: %v", line, rec.V, err)
			}
			v = parsed
		}
		_ = log.Event(&Event{
			T: rec.T, Kind: kind, Job: rec.Job, Node: rec.Node, Lender: rec.Lender,
			MB: rec.MB, Aux: rec.Aux, V: v, Detail: rec.Detail,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %v", err)
	}
	return log, log.Close()
}
