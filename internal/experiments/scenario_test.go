package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dismem/internal/telemetry"
)

const sampleSpec = `{
  "name": "lublin-study",
  "trace": {"model": "lublin", "large_frac": 0.25, "overestimation": 0.5, "seed": 9},
  "mem_pcts": [50, 100],
  "policies": ["static", "dynamic"],
  "backfill": "conservative",
  "update_interval_s": 120
}`

func TestLoadScenario(t *testing.T) {
	s, err := LoadScenario(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "lublin-study" || s.Trace.Model != "lublin" {
		t.Fatalf("spec = %+v", s)
	}
	if len(s.MemPcts) != 2 || s.UpdateInterval != 120 {
		t.Fatalf("spec fields lost: %+v", s)
	}
}

func TestLoadScenarioRejections(t *testing.T) {
	// Every validation error must name the offending JSON field (or say
	// what's structurally wrong) — daemon clients see these verbatim, so
	// each text is pinned byte for byte.
	cases := []struct {
		name, in, wantErr string
	}{
		{"bad policy", `{"policies": ["magic"]}`, `scenario: field "policies[0]": unknown policy "magic" (want baseline, static, or dynamic)`},
		{"empty policy", `{"policies": ["static", ""]}`, `scenario: field "policies[1]": unknown policy "" (want baseline, static, or dynamic)`},
		{"bad backfill", `{"backfill": "optimistic"}`, `scenario: field "backfill": unknown mode "optimistic" (want easy, conservative, or none)`},
		{"bad oom", `{"oom": "panic"}`, `scenario: field "oom": unknown mode "panic" (want fail_restart or checkpoint_restart)`},
		{"bad mem pct", `{"mem_pcts": [99]}`, `scenario: field "mem_pcts": experiments: no memory configuration labelled 99%`},
		{"large_frac range", `{"trace": {"large_frac": 2}}`, `scenario: field "trace.large_frac": 2 out of [0,1]`},
		{"chain_frac range", `{"trace": {"chain_frac": -0.5}}`, `scenario: field "trace.chain_frac": -0.5 out of [0,1]`},
		{"negative overestimation", `{"trace": {"overestimation": -1}}`, `scenario: field "trace.overestimation": -1 is negative`},
		{"negative load", `{"trace": {"load": -0.5}}`, `scenario: field "trace.load": -0.5 is negative`},
		{"negative days", `{"trace": {"days": -2}}`, `scenario: field "trace.days": -2 is negative`},
		{"negative system nodes", `{"trace": {"system_nodes": -64}}`, `scenario: field "trace.system_nodes": -64 is negative`},
		{"negative update interval", `{"update_interval_s": -3}`, `scenario: field "update_interval_s": -3 is negative`},
		{"bad pressure", `{"pressure": "vibes"}`, `scenario: field "pressure": unknown mode "vibes" (want global or domains)`},
		{"domains without pressure", `{"domains": 4}`, `scenario: field "domains": set to 4 without "pressure": "domains"`},
		{"negative domains without pressure", `{"domains": -4}`, `scenario: field "domains": set to -4 without "pressure": "domains"`},
		{"negative domains", `{"pressure": "domains", "domains": -1}`, `scenario: field "domains": negative count -1`},
		{"unknown field", `{"unknown_field": 1}`, `scenario: json: unknown field "unknown_field"`},
		{"not json", `not json`, `scenario: invalid character 'o' in literal null (expecting 'u')`},
		{"empty input", ``, `scenario: empty spec (want a JSON object)`},
		{"whitespace only", "  \n\t", `scenario: empty spec (want a JSON object)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadScenario(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error %q, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestScenarioKey(t *testing.T) {
	p := tiny()
	load := func(in string) *ScenarioSpec {
		t.Helper()
		s, err := LoadScenario(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := load(sampleSpec)
	k1, err := p.ScenarioKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p.ScenarioKey(load(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("identical specs hash differently")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}
	// Canonical spellings collapse: explicit defaults hash like omissions.
	expl := load(sampleSpec)
	expl.OOM = "fail_restart"
	expl.Pressure = "global"
	if k3, _ := p.ScenarioKey(expl); k3 != k1 {
		t.Fatal("explicit default spellings changed the key")
	}
	// Every swept dimension must move the key.
	for name, mut := range map[string]func(*ScenarioSpec){
		"update interval": func(s *ScenarioSpec) { s.UpdateInterval = 60 },
		"policies":        func(s *ScenarioSpec) { s.Policies = []string{"dynamic"} },
		"mem pcts":        func(s *ScenarioSpec) { s.MemPcts = []int{100} },
		"backfill":        func(s *ScenarioSpec) { s.Backfill = "none" },
		"oom":             func(s *ScenarioSpec) { s.OOM = "checkpoint_restart" },
		"pressure":        func(s *ScenarioSpec) { s.Pressure = "domains" },
		"chain frac":      func(s *ScenarioSpec) { s.Trace.ChainFrac = 0.25 },
		"seed":            func(s *ScenarioSpec) { s.Trace.Seed = 11 },
		"enforce":         func(s *ScenarioSpec) { s.EnforceTimeLimit = true },
	} {
		s := load(sampleSpec)
		mut(s)
		k, err := p.ScenarioKey(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	// The keys are pinned: they are dmpd's cache IDs, so a change to how a
	// spec's knobs resolve must not move them.
	for _, tc := range []struct{ spec, want string }{
		{sampleSpec, "8a35eba220730a1a421808342d2613ccfa4feb10592a134017ddcfe93ee325d9"},
		{`{
  "name": "every-knob",
  "trace": {"large_frac": 0.5, "overestimation": 0.6},
  "mem_pcts": [50],
  "policies": ["dynamic"],
  "backfill": "conservative",
  "oom": "checkpoint_restart",
  "pressure": "domains",
  "domains": 4,
  "update_interval_s": 60,
  "enforce_time_limit": true
}`, "259feb97e94556e109386aa8e13f9550b5309422f35775c09df8d3d0a77fc547"},
	} {
		s := load(tc.spec)
		if k, err := p.ScenarioKey(s); err != nil || k != tc.want {
			t.Errorf("spec %q keys as %s (%v), want %s", s.Name, k, err, tc.want)
		}
	}
	// The key validates: a spec that cannot run cannot be keyed.
	bad := load(sampleSpec)
	bad.Policies = []string{"magic"}
	if _, err := p.ScenarioKey(bad); err == nil {
		t.Fatal("keyed an invalid spec")
	}
}

func TestRunScenarioSpecCtxCancelled(t *testing.T) {
	p := tiny()
	s, err := LoadScenario(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	s.Trace.SystemNodes = p.SystemNodes
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunScenarioSpecCtx(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunScenarioSpec(t *testing.T) {
	p := tiny()
	s, err := LoadScenario(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Keep the trace at the tiny preset scale.
	s.Trace.SystemNodes = p.SystemNodes
	res, err := p.RunScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*2 { // 2 mem configs × 2 policies
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	feasible := 0
	for _, row := range res.Rows {
		if !isNaN(row.Throughput) {
			feasible++
			if row.Throughput <= 0 || row.MeanStretch < 0.999 {
				t.Fatalf("implausible row %+v", row)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("nothing feasible")
	}
	if !strings.Contains(res.String(), "lublin-study") {
		t.Fatal("rendering broken")
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows := parseCSV(t, &buf); len(rows) != 4 {
		t.Fatalf("csv rows = %d", len(rows))
	}
}

// TestRunScenarioSpecReadsItsTable sweeps a spec whose axes name one cell
// twice. The sweep must simulate each cell once, build one recorder per
// simulated cell and close it, and print the repeated cell's row twice.
func TestRunScenarioSpecReadsItsTable(t *testing.T) {
	p := tiny()
	s, err := LoadScenario(strings.NewReader(`{"trace": {"large_frac": 0.5, "overestimation": 0.6},
		"mem_pcts": [50, 100, 50], "policies": ["dynamic", "static"], "oom": "checkpoint_restart"}`))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sinks []*closedSink
	s.Telemetry = func(int, string) *telemetry.Recorder {
		sink := &closedSink{}
		mu.Lock()
		sinks = append(sinks, sink)
		mu.Unlock()
		return telemetry.New(telemetry.Options{Sink: sink})
	}
	sims := countSimulations(t)
	res, err := p.RunScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if ran, repeats := sims.take(); ran != 4 || len(repeats) != 0 {
		t.Fatalf("the sweep ran %d simulations with %d repeats, want 4 and none", ran, len(repeats))
	}
	if len(sinks) != 4 {
		t.Fatalf("the sweep built %d recorders, want one per simulated cell (4)", len(sinks))
	}
	for i, sink := range sinks {
		if len(sink.Events) == 0 || !sink.closed {
			t.Fatalf("recorder %d recorded %d events and was closed: %v", i, len(sink.Events), sink.closed)
		}
	}
	if len(res.Rows) != 6 || res.Rows[0] != res.Rows[4] || res.Rows[1] != res.Rows[5] {
		t.Fatalf("rows = %+v, want the 50%% rows repeated", res.Rows)
	}
}

// closedSink is a MemorySink that notes its Close.
type closedSink struct {
	telemetry.MemorySink
	closed bool
}

func (s *closedSink) Close() error { s.closed = true; return nil }

func TestRunScenarioSpecDefaultsAndChains(t *testing.T) {
	p := tiny()
	s, err := LoadScenario(strings.NewReader(`{"trace": {"chain_frac": 0.3}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: all eight memory configs × three policies.
	if len(res.Rows) != 8*3 {
		t.Fatalf("rows = %d, want 24", len(res.Rows))
	}
}

func TestWriteReport(t *testing.T) {
	p := tiny()
	var buf bytes.Buffer
	if err := WriteReport(&buf, p, WalkOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# dismem evaluation report",
		"Table 2", "Table 3",
		"Figure 5", "Figure 9",
		"Memory utilisation", "Ablations", "Headline metrics",
		"_generated in",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
