package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

// telemetrySpec has four cells, so the stream interleaves several cells'
// events and, when sampling is on, their pool samples.
const telemetrySpec = `{
  "name": "tel",
  "mem_pcts": [62, 100],
  "policies": ["static", "dynamic"]
}`

// offlineTelemetry runs each cell of a default-knob spec that lists its
// axes (the preset's synthetic trace with no large jobs or overestimation,
// on ConfigFor's system) straight on the core simulator with a JSONL sink,
// and concatenates the cells in result-row order under their header lines:
// the stream the daemon serves, computed without the sweep or its logs.
func offlineTelemetry(t *testing.T, p experiments.Preset, doc string, interval float64) []byte {
	t.Helper()
	spec := loadSpec(t, doc)
	tr, err := p.SyntheticTrace(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, pct := range spec.MemPcts {
		mc, err := experiments.MemConfigByPct(pct)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range spec.Policies {
			pol, err := policy.ParseKind(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "{\"cell\":{\"mem_pct\":%d,\"policy\":%q}}\n", pct, name)
			cfg := p.ConfigFor(p.SystemNodes, mc, pol)
			cfg.Telemetry = telemetry.New(telemetry.Options{Sink: telemetry.NewJSONL(&out), SampleInterval: interval})
			sim, err := core.New(cfg, tr.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Telemetry.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
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
// spec is the submitted document and nothing more: the run's capture is
// kept once, in the entry's result rows, and the spec the branch endpoint
// re-simulates from pins none of it.
func TestCachedSpecHoldsNoCapture(t *testing.T) {
	p := experiments.Bench()
	s := New(Config{Preset: p, TelemetryInterval: 600})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := postSpec(t, ts.Client(), ts.URL, benchSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	want := loadSpec(t, benchSpec)
	id, err := p.ScenarioKey(want)
	if err != nil {
		t.Fatal(err)
	}
	e, known, done := s.store.peek(id)
	if !known || !done {
		t.Fatalf("entry known=%v done=%v", known, done)
	}
	if e.spec == nil || !reflect.DeepEqual(*e.spec, *want) {
		t.Fatalf("cached spec %+v, want the submitted document %+v", e.spec, want)
	}
	if len(e.rows) != 2 || e.rows[0].Telemetry == nil || e.rows[1].Telemetry == nil {
		t.Fatalf("entry rows: %+v, want two captured cells", e.rows)
	}
}
