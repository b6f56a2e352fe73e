package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

// fixtureLog drives a Recorder through a tiny run and decodes its JSONL
// output, so the summary is tested against the same wire format dmpsim
// writes.
func fixtureLog(t *testing.T) *telemetry.Log {
	t.Helper()
	var buf bytes.Buffer
	rec := telemetry.New(telemetry.Options{Sink: telemetry.NewJSONL(&buf)})
	rec.SetNow(0)
	rec.JobSubmit(1, false)
	rec.JobSubmit(2, false)
	rec.JobSubmit(3, false)
	rec.Sample(0, 4096, 0, 2, 0, 0)
	rec.SetNow(10)
	rec.JobStart(1, 2, 1024, 512)
	rec.LeaseGrant(1, 3, 7, 512)
	rec.BackfillHole(2, math.Inf(1))
	rec.Sample(300, 2048, 512, 1, 2, 1)
	rec.SetNow(400)
	rec.LeaseAdjust(1, 3, 256, 128)
	rec.LeaseGrant(1, 3, 9, 128)
	rec.PoolCheck(0, 4096) // drains the pool: crosses every default watermark
	rec.SetNow(500)
	rec.LeaseAdjust(1, 3, -64, -64)
	// Legacy pre-split log line: kills used to be job_end. The summary must
	// fold it into the kill tally, not the terminal outcomes.
	rec.JobEnd(2, "oom-killed", 0)
	rec.JobSubmit(2, true)
	// Current schema: the kill is an attempt end, the abandonment the single
	// final job_end — the pair the old double-emit produced as two job_ends.
	rec.JobAttemptEnd(3, "oom-killed", 1)
	rec.JobEnd(3, "abandoned", 1)
	rec.SetNow(900)
	rec.LeaseRevoke(1, 3, 7, 512)
	rec.LeaseRevoke(1, 3, 9, 64)
	rec.JobEnd(1, "completed", 0)
	rec.BackfillPlace(2)
	rec.Sample(900, 4096, 0, 0, 0, 0)
	// Two what-if branches forked off this run: a no-op (inherits the prefix,
	// touches nothing) and a repack (pays a node copy and three shard thaws).
	rec.Branch("noop", 1200, 0, 0)
	rec.Branch("repack", 1200, 1, 3)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := telemetry.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestSummarize(t *testing.T) {
	var out strings.Builder
	if err := summarize(&out, "fixture", fixtureLog(t), 60, 4); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"fixture: ",
		"3 samples",
		"events by kind",
		"lease_grant            2",
		"job_attempt_end        1",
		"submitted               3 (plus 1 restarts)",
		"completed               1",
		"abandoned               1",
		"oom kills               2 (attempts, not terminal outcomes)",
		"backfilled              1 (1 reservation holes)",
		"what-if branches",
		"repack                1200 prefix events inherited, 1 node copies, 3 shard thaws",
		"total: 2 branches shared 2400 prefix events; CoW paid 1 node copies, 3 shard thaws",
		"lease flow",
		"granted          0.6 GB in 2 leases from 2 lender nodes",
		"pool watermark crossings",
		"≤50%",
		"≤0%",
		"pool occupancy (GB)",
		"scheduler load",
		"queue depth",
		"top lenders (GB lent out)",
		"node 7",
		"top borrowers (GB borrowed)",
		"node 3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSummarizeEmptyLog(t *testing.T) {
	var out strings.Builder
	if err := summarize(&out, "empty", &telemetry.Log{}, 60, 4); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "0 events, 0 samples") {
		t.Fatalf("empty log header wrong:\n%s", s)
	}
	// No samples, no grants: the timeline and bar sections are skipped
	// rather than rendered empty.
	if strings.Contains(s, "pool occupancy") || strings.Contains(s, "top lenders") {
		t.Fatalf("empty log rendered data sections:\n%s", s)
	}
}

func TestTopBarsOrderAndCap(t *testing.T) {
	bars := topBars(map[int]int64{4: 1024, 2: 2048, 9: 2048, 1: 512}, 3)
	if len(bars) != 3 {
		t.Fatalf("got %d bars, want 3", len(bars))
	}
	// Sorted by volume, ties by node id; the smallest entry dropped.
	if bars[0].Label != "node 2" || bars[1].Label != "node 9" || bars[2].Label != "node 4" {
		t.Fatalf("bar order wrong: %v", bars)
	}
	if bars[0].Value != 2.0 {
		t.Fatalf("GB conversion wrong: %v", bars[0].Value)
	}
}

// TestSummarizePoolSamples checks the pool figures the report derives from
// the samples: the lowest free pool, the peak lent memory and queue depth,
// and the final sample.
func TestSummarizePoolSamples(t *testing.T) {
	l := &telemetry.Log{}
	rec := telemetry.New(telemetry.Options{Sink: l})
	rec.Sample(0, 100<<10, 0, 3, 2, 1)
	rec.Sample(10, 40<<10, 60<<10, 7, 5, 4)
	rec.Sample(20, 80<<10, 20<<10, 1, 2, 2)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := summarize(&out, "samples", l, 60, 4); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"samples: 0 events, 3 samples, 20 simulated seconds",
		"min free        40.0 GB   peak lent       60.0 GB   peak queue 7",
		"final           80.0 GB free, 20.0 GB lent, 1 queued, 2 running",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// The report and Prometheus aggregates of the Bench golden telemetry
// stream (internal/experiments, digest 7ba5c0d5…), as dmpobs printed and
// wrote them when it read the log as separate event and sample lists.
const (
	goldenReportDigest = "d647a3c163c45588d9aa81b8ff49c117c34a6ec994d923c453f5e1a63b46f005"
	goldenPromDigest   = "c91932952b50e25f0829c165843fc0a07682c7ce61b732956f873b82cb4a72bf"
)

// TestSummarizeGoldenStream regenerates the Bench golden stream — the
// Bench preset's synthetic trace at 25 % large jobs and 50 % overestimate,
// 62 % memory, the dynamic policy, a 300 s sampler — reads it back, and
// pins the digests of `dmpobs -` and of its -prom aggregates.
func TestSummarizeGoldenStream(t *testing.T) {
	if testing.Short() {
		t.Skip("golden telemetry run skipped in -short mode")
	}
	p := experiments.Bench()
	tr, err := p.SyntheticTrace(0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := experiments.MemConfigByPct(62)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := p.ConfigFor(p.SystemNodes, mc, policy.Dynamic)
	cfg.Telemetry = telemetry.New(telemetry.Options{Sink: telemetry.NewJSONL(&buf), SampleInterval: 300})
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
	log, err := telemetry.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var report, prom bytes.Buffer
	if err := summarize(&report, "(stdin)", log, 72, 8); err != nil {
		t.Fatal(err)
	}
	agg := telemetry.NewPromSink()
	if err := log.Replay(agg); err != nil {
		t.Fatal(err)
	}
	if err := agg.WriteText(&prom); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		out  []byte
		want string
	}{{"report", report.Bytes(), goldenReportDigest}, {"-prom aggregates", prom.Bytes(), goldenPromDigest}} {
		sum := sha256.Sum256(c.out)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest changed:\n got %s\nwant %s\n%s", c.what, got, c.want, c.out)
		}
	}
}
