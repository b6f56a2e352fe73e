package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/server"
	"dismem/internal/slurmconf"
)

// defaults is the command line with every flag at its default.
func defaults() options {
	return options{policy: "dynamic", trace: "synthetic", preset: "quick", pressure: "global",
		memPct: 100, largeFrac: 0.5, seed: 1}
}

// writeFile writes content to a fresh file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// dump writes cfg as -dump-conf does and returns the file's path.
func dump(t *testing.T, cfg core.Config) string {
	t.Helper()
	var buf bytes.Buffer
	if err := slurmconf.WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "dumped.conf", buf.String())
}

// simulate resolves o and runs it through the one path main uses.
func simulate(t *testing.T, o options) (core.Config, *core.Result) {
	t.Helper()
	cfg, jobs, err := configure(o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

// normalized is cfg after Normalize, without the run-only fields.
func normalized(t *testing.T, cfg core.Config) core.Config {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg.Observer, cfg.Telemetry, cfg.Interrupt = nil, nil, nil
	return cfg
}

// jobsCSV is a result's per-job table, the finest view dmpsim writes.
func jobsCSV(t *testing.T, res *core.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDumpConfRoundTrip: -dump-conf after -conf writes the configuration
// that ran, so re-running the dumped file reproduces the run bit for bit.
func TestDumpConfRoundTrip(t *testing.T) {
	o := defaults()
	o.conf = writeFile(t, "in.conf", `SchedulerParameters=bf_interval=60,default_queue_depth=50,bf_algorithm=conservative
NodeName=node[0-63] CPUs=16 RealMemory=65536
DisaggPolicy=dynamic
DisaggUpdateInterval=120
DisaggOOM=checkpoint_restart
`)
	cfg, res := simulate(t, o)
	if cfg.Backfill != core.ConservativeBackfill || cfg.OOM != core.CheckpointRestart ||
		cfg.SchedInterval != 60 || cfg.QueueDepth != 50 || cfg.Cluster.Cores != 16 || cfg.UpdateInterval != 120 {
		t.Fatalf("-conf did not configure the run: %+v", cfg)
	}

	again := o
	again.conf = dump(t, cfg)
	cfg2, res2 := simulate(t, again)
	if a, b := normalized(t, cfg), normalized(t, cfg2); !reflect.DeepEqual(a, b) {
		t.Fatalf("dumped configuration differs from the one that ran:\n%+v\n%+v", b, a)
	}
	if a, b := jobsCSV(t, res), jobsCSV(t, res2); a != b {
		t.Fatal("re-running the dumped configuration changed the per-job results")
	}
	if res.OOMKills != res2.OOMKills || res.MeanStretch() != res2.MeanStretch() {
		t.Fatalf("OOM kills %d vs %d, stretch %v vs %v", res.OOMKills, res2.OOMKills, res.MeanStretch(), res2.MeanStretch())
	}
}

// TestSummarySystemLine: the system line carries the -mem label only when
// the system came from that label; a -conf system need not sit on the
// paper's memory axis.
func TestSummarySystemLine(t *testing.T) {
	o := defaults()
	o.conf = writeFile(t, "half.conf", "NodeName=node[0-255] CPUs=32 RealMemory=65536\nDisaggPolicy=dynamic\n")
	cfg, res := simulate(t, o)
	var buf bytes.Buffer
	if err := summary(&buf, o, cfg, res); err != nil {
		t.Fatal(err)
	}
	if want := "system:                 256 nodes, 16384.0 GB total\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("summary under -conf lacks %q:\n%s", want, buf.String())
	}

	o = defaults()
	o.memPct = 50
	cfg, res = simulate(t, o)
	buf.Reset()
	if err := summary(&buf, o, cfg, res); err != nil {
		t.Fatal(err)
	}
	if want := "system:                 64 nodes, 4096.0 GB total (50%)\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("summary lacks %q:\n%s", want, buf.String())
	}
}

// cell is the part of a result every front end reports.
type cell struct {
	Throughput     float64 `json:"throughput"`
	MedianResponse float64 `json:"median_response_s"`
	OOMKills       int     `json:"oom_kills"`
	MeanStretch    float64 `json:"mean_stretch"`
}

func cellOf(t *testing.T, res *core.Result) cell {
	t.Helper()
	e, err := metrics.NewECDF(res.ResponseTimes())
	if err != nil {
		t.Fatal(err)
	}
	return cell{res.Throughput(), e.Median(), res.OOMKills, res.MeanStretch()}
}

// specCell runs a one-cell scenario document through RunScenarioSpec.
func specCell(t *testing.T, doc string) cell {
	t.Helper()
	s, err := experiments.LoadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := experiments.Quick().RunScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(out.Rows))
	}
	r := out.Rows[0]
	return cell{r.Throughput, r.MedianResponse, r.OOMKills, r.MeanStretch}
}

// daemonCell POSTs a one-cell scenario document to dmpd's handler.
func daemonCell(t *testing.T, doc string) cell {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{Preset: experiments.Quick()}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var out struct{ Rows []cell }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("%d rows, want 1: %s", len(out.Rows), body)
	}
	return out.Rows[0]
}

// same reports whether two cells agree bit for bit.
func same(a, b cell) bool {
	return math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.MedianResponse) == math.Float64bits(b.MedianResponse) &&
		a.OOMKills == b.OOMKills &&
		math.Float64bits(a.MeanStretch) == math.Float64bits(b.MeanStretch)
}

// TestFourFrontEnds: one cell given as dmpsim flags, as the configuration
// -dump-conf writes for it, as scenario JSON and as a dmpd request reaches
// one core.Config and gives one result.
func TestFourFrontEnds(t *testing.T) {
	o := defaults()
	o.memPct, o.overest, o.pressure = 75, 0.6, "domains"
	cfg, res := simulate(t, o)
	flags := cellOf(t, res)
	if flags.OOMKills == 0 {
		t.Fatal("the cell has no OOM kills; pick one that exercises the dynamic policy")
	}

	fromConf := o
	fromConf.conf = dump(t, cfg)
	_, res = simulate(t, fromConf)
	conf := cellOf(t, res)

	const doc = `{"trace": {"large_frac": 0.5, "overestimation": 0.6}, "mem_pcts": [75],
	  "policies": ["dynamic"], "pressure": "domains"}`
	spec := specCell(t, doc)
	daemon := daemonCell(t, doc)

	for name, c := range map[string]cell{"slurm.conf": conf, "scenario JSON": spec, "dmpd": daemon} {
		if !same(flags, c) {
			t.Errorf("%s gives %+v, flags give %+v", name, c, flags)
		}
	}
}

// TestPrintedModeNames: a cell whose modes are spelt as the simulator
// prints them gives one result as a slurm.conf and as scenario JSON. The
// cell sits at 43 % memory, where the dynamic policy kills jobs, so the OOM
// mode shapes the result.
func TestPrintedModeNames(t *testing.T) {
	mc, err := experiments.MemConfigByPct(43)
	if err != nil {
		t.Fatal(err)
	}
	nodes := experiments.Quick().SystemNodes
	large := int(float64(nodes)*mc.LargeFrac + 0.5)
	o := defaults()
	o.overest = 0.6
	o.conf = writeFile(t, "printed.conf", fmt.Sprintf(`SchedulerParameters=bf_algorithm=%s
NodeName=large[0-%d] CPUs=32 RealMemory=%d
NodeName=normal[0-%d] CPUs=32 RealMemory=%d
DisaggPolicy=%s
DisaggOOM=%s
`, core.ConservativeBackfill, large-1, 2*mc.NormalMB, nodes-large-1, mc.NormalMB,
		policy.Dynamic, core.CheckpointRestart))
	_, res := simulate(t, o)
	conf := cellOf(t, res)
	if conf.OOMKills == 0 {
		t.Fatal("the cell has no OOM kills, so its OOM mode is untested")
	}

	spec := specCell(t, fmt.Sprintf(`{"trace": {"large_frac": 0.5, "overestimation": 0.6}, "mem_pcts": [43],
	  "policies": [%q], "backfill": %q, "oom": %q}`, policy.Dynamic, core.ConservativeBackfill, core.CheckpointRestart))
	if !same(conf, spec) {
		t.Fatalf("scenario JSON gives %+v, slurm.conf gives %+v", spec, conf)
	}
}
