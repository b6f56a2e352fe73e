package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"dismem/internal/experiments"
	"dismem/internal/telemetry"
)

// telemetrySpec has four cells, so the stream interleaves several cells'
// events and, when sampling is on, their pool samples.
const telemetrySpec = `{
  "name": "tel",
  "mem_pcts": [62, 100],
  "policies": ["static", "dynamic"]
}`

// offlineTelemetry runs spec outside the daemon with a JSONL sink per cell
// and concatenates the cells in result-row order under their header
// lines: the stream the daemon served when it kept the encoded bytes.
func offlineTelemetry(t *testing.T, p experiments.Preset, doc string, interval float64) []byte {
	t.Helper()
	var mu sync.Mutex
	bufs := map[cellKey]*bytes.Buffer{}
	spec := loadSpec(t, doc)
	spec.Telemetry = func(memPct int, pol string) *telemetry.Recorder {
		b := &bytes.Buffer{}
		mu.Lock()
		bufs[cellKey{memPct, pol}] = b
		mu.Unlock()
		return telemetry.New(telemetry.Options{Sink: telemetry.NewJSONL(b), SampleInterval: interval})
	}
	res, err := p.RunScenarioSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, row := range res.Rows {
		out = append(out, `{"cell":{"mem_pct":`...)
		out = strconv.AppendInt(out, int64(row.MemPct), 10)
		out = append(out, `,"policy":`...)
		out = strconv.AppendQuote(out, row.Policy)
		out = append(out, "}}\n"...)
		out = append(out, bufs[cellKey{row.MemPct, row.Policy}].Bytes()...)
	}
	return out
}

// TestTelemetryGetMatchesJSONL checks that the telemetry GET, rendered
// from the cached per-cell logs, is byte for byte the per-cell JSONL sink
// output, with and without pool samples, and that concurrent GETs agree.
func TestTelemetryGetMatchesJSONL(t *testing.T) {
	p := experiments.Bench()
	id, err := p.ScenarioKey(loadSpec(t, telemetrySpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []float64{0, 600} {
		t.Run(fmt.Sprintf("interval=%g", interval), func(t *testing.T) {
			s := New(Config{Preset: p, TelemetryInterval: interval})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if resp, body := postSpec(t, ts.Client(), ts.URL, telemetrySpec); resp.StatusCode != http.StatusOK {
				t.Fatalf("POST status %d: %s", resp.StatusCode, body)
			}
			want := offlineTelemetry(t, p, telemetrySpec, interval)
			if interval > 0 && !bytes.Contains(want, []byte(`"ev":"pool_sample"`)) {
				t.Fatal("reference stream has no samples")
			}
			var wg sync.WaitGroup
			got := make([][]byte, 3)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					r, err := ts.Client().Get(ts.URL + "/v1/scenarios/" + id + "/telemetry")
					if err != nil {
						t.Error(err)
						return
					}
					defer r.Body.Close()
					var b bytes.Buffer
					if _, err := b.ReadFrom(r.Body); err != nil || r.StatusCode != http.StatusOK {
						t.Errorf("GET: status %d, %v", r.StatusCode, err)
					}
					got[i] = b.Bytes()
				}(i)
			}
			wg.Wait()
			for i := range got {
				if !bytes.Equal(got[i], want) {
					t.Fatalf("GET %d served %d bytes that differ from the %d-byte JSONL stream",
						i, len(got[i]), len(want))
				}
			}
		})
	}
}

// TestCachedSpecHoldsNoCapture checks that a completed entry's retained
// spec carries no telemetry factory: the capture, and with it every
// recorder the run made, stays with the run.
func TestCachedSpecHoldsNoCapture(t *testing.T) {
	p := experiments.Bench()
	s := New(Config{Preset: p, TelemetryInterval: 600})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := postSpec(t, ts.Client(), ts.URL, benchSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	id, err := p.ScenarioKey(loadSpec(t, benchSpec))
	if err != nil {
		t.Fatal(err)
	}
	e, known, done := s.store.peek(id)
	if !known || !done {
		t.Fatalf("entry known=%v done=%v", known, done)
	}
	if e.spec == nil || e.spec.Telemetry != nil {
		t.Fatalf("cached spec %p keeps a telemetry factory", e.spec)
	}
	if len(e.telemetry) != 2 || e.telemetry[0].log == nil || e.telemetry[1].log == nil {
		t.Fatalf("entry telemetry: %+v, want two captured cells", e.telemetry)
	}
}
