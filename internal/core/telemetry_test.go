package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

// telemetryWorkload is a small mixed scenario that exercises every emission
// path: queueing, backfill, dynamic growth and shrink, OOM restart, and
// teardown.
func telemetryWorkload() []*job.Job {
	ramp := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 200}, {T: 200, MB: 900}, {T: 400, MB: 1400}})
	return []*job.Job{
		mkJob(1, 0, 2, 900, 800, memtrace.Constant(850)),
		mkJob(2, 5, 1, 900, 600, ramp), // grows past its node: borrows remotely
		mkJob(3, 10, 3, 800, 400, memtrace.Constant(700)),
		mkJob(4, 15, 1, 300, 50, memtrace.Constant(250)), // short: backfill candidate
		mkJob(5, 20, 1, 500, 300, memtrace.Constant(450)),
	}
}

func telemetryConfig(pol policy.Kind) Config {
	cfg := baseConfig(4, 1000, pol)
	cfg.EnforceTimeLimit = true
	return cfg
}

// collector gathers a replayed log's events and samples.
type collector struct {
	events  []telemetry.Event
	samples []telemetry.Sample
}

func (c *collector) Event(e *telemetry.Event) error   { c.events = append(c.events, *e); return nil }
func (c *collector) Sample(s *telemetry.Sample) error { c.samples = append(c.samples, *s); return nil }
func (c *collector) Close() error                     { return nil }

// collect replays l and returns its events and samples, each in emission
// order.
func collect(t *testing.T, l *telemetry.Log) ([]telemetry.Event, []telemetry.Sample) {
	t.Helper()
	c := &collector{}
	if err := l.Replay(c); err != nil {
		t.Fatal(err)
	}
	return c.events, c.samples
}

// TestTelemetryDoesNotPerturbResults locks the core guarantee: attaching a
// recorder (with sampling on) must leave the simulation Result bit-identical
// to a telemetry-off run.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, pol := range []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic} {
		off := runSim(t, telemetryConfig(pol), telemetryWorkload())

		cfg := telemetryConfig(pol)
		cfg.Telemetry = telemetry.New(telemetry.Options{SampleInterval: 30})
		on := runSim(t, cfg, telemetryWorkload())

		if !reflect.DeepEqual(off, on) {
			t.Fatalf("%v: telemetry changed the result:\noff: %+v\non:  %+v", pol, off, on)
		}
	}
}

// TestTelemetryEventStreamConsistency cross-checks the event stream against
// the Result and the ledger laws: submit/end pairing, grant/revoke balance,
// and sample sanity.
func TestTelemetryEventStreamConsistency(t *testing.T) {
	l := &telemetry.Log{}
	cfg := telemetryConfig(policy.Dynamic)
	cfg.Telemetry = telemetry.New(telemetry.Options{Sink: l, SampleInterval: 30})
	res := runSim(t, cfg, telemetryWorkload())
	events, samples := collect(t, l)

	rec := cfg.Telemetry
	if got := rec.Count(telemetry.KindJobEnd); got < uint64(res.Completed) {
		t.Fatalf("job_end events %d < completed jobs %d", got, res.Completed)
	}
	starts := rec.Count(telemetry.KindJobStart)
	if starts == 0 {
		t.Fatal("no job_start events")
	}

	var completedEnds, oomEnds int
	var grantMB, revokeMB, shrunkMB int64
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindJobEnd:
			if e.Detail == "completed" {
				completedEnds++
			}
		case telemetry.KindJobAttemptEnd:
			if e.Detail == "oom-killed" {
				oomEnds++
			}
		case telemetry.KindLeaseGrant:
			grantMB += e.MB
		case telemetry.KindLeaseRevoke:
			revokeMB += e.MB
		case telemetry.KindLeaseAdjust:
			// Aux is the remote share of the resize; a negative share is
			// remote memory returned by the shrink path. (Positive shares
			// duplicate the per-lender grant events, which carry the flow.)
			if e.Aux < 0 {
				shrunkMB += -e.Aux
			}
		}
	}
	if completedEnds != res.Completed {
		t.Fatalf("completed job_end events %d, Result.Completed %d", completedEnds, res.Completed)
	}
	if oomEnds != res.OOMKills {
		t.Fatalf("oom job_attempt_end events %d, Result.OOMKills %d", oomEnds, res.OOMKills)
	}
	// Everything borrowed is eventually returned: every granted megabyte
	// comes back either through a shrink or a teardown revoke.
	if grantMB != revokeMB+shrunkMB {
		t.Fatalf("lease flow unbalanced: granted %d != revoked %d + shrunk %d",
			grantMB, revokeMB, shrunkMB)
	}

	if len(samples) == 0 {
		t.Fatal("sampler recorded nothing")
	}
	if rec.Samples() != uint64(len(samples)) {
		t.Fatalf("recorder counted %d samples, sink saw %d", rec.Samples(), len(samples))
	}
	for i, sm := range samples {
		if sm.FreeMB < 0 || sm.LentMB < 0 || sm.Queue < 0 || sm.Busy < 0 || sm.Running < 0 {
			t.Fatalf("negative sample at t=%g: %+v", sm.T, sm)
		}
		if i > 0 && sm.T <= samples[i-1].T {
			t.Fatalf("samples out of order at %d: %g after %g", i, sm.T, samples[i-1].T)
		}
	}
	// Events and samples carry monotonically non-decreasing timestamps.
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("event timestamps regress at %d: %+v after %+v",
				i, events[i], events[i-1])
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryOneFinalEndPerJob is the regression test for the OOM-abandon
// double-emit: a job killed by OOM and then abandoned used to produce two
// job_end events (the kill and the abandonment), so aggregating terminal
// events over-counted. With the attempt/final split, every job that reaches
// a terminal outcome emits exactly one job_end, and each OOM kill emits one
// job_attempt_end.
func TestTelemetryOneFinalEndPerJob(t *testing.T) {
	l := &telemetry.Log{}
	cfg := telemetryConfig(policy.Dynamic)
	cfg.MaxRestarts = 2 // the second OOM kill abandons: the old double-emit case
	cfg.Telemetry = telemetry.New(telemetry.Options{Sink: l})
	// Job 6 grows past the whole pool, so every attempt OOMs until the
	// restart cap abandons it; the rest of the workload completes normally.
	jobs := telemetryWorkload()
	hog := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 300, MB: 9000}})
	jobs = append(jobs, mkJob(6, 25, 1, 200, 1000, hog))
	res := runSim(t, cfg, jobs)
	if res.OOMKills == 0 || res.Abandoned == 0 {
		t.Fatalf("workload did not exercise the OOM-abandon path: %+v", res)
	}

	ends := map[int]int{}
	attemptEnds := 0
	events, _ := collect(t, l)
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindJobEnd:
			if e.Detail == "oom-killed" {
				t.Fatalf("OOM kill emitted as a final job_end: %+v", e)
			}
			ends[e.Job]++
		case telemetry.KindJobAttemptEnd:
			attemptEnds++
		}
	}
	for id, n := range ends {
		if n != 1 {
			t.Fatalf("job %d emitted %d job_end events, want exactly 1", id, n)
		}
	}
	terminal := res.Completed + res.TimedOut + res.Abandoned
	if len(ends) != terminal {
		t.Fatalf("%d jobs emitted job_end, Result has %d terminal outcomes", len(ends), terminal)
	}
	if attemptEnds != res.OOMKills {
		t.Fatalf("job_attempt_end events %d, Result.OOMKills %d", attemptEnds, res.OOMKills)
	}
}

// TestTelemetrySamplerDoesNotExtendRun asserts the trailing sampler tick
// neither keeps the run alive nor moves the makespan.
func TestTelemetrySamplerDoesNotExtendRun(t *testing.T) {
	cfg := baseConfig(2, 1000, policy.Static)
	l := &telemetry.Log{}
	cfg.Telemetry = telemetry.New(telemetry.Options{Sink: l, SampleInterval: 7})
	j := mkJob(1, 10, 1, 500, 1000, memtrace.Constant(400))
	res := runSim(t, cfg, []*job.Job{j})
	if math.Abs(res.Makespan-1010) > 1e-6 {
		t.Fatalf("makespan = %g, want 1010 (sampler must not extend it)", res.Makespan)
	}
	_, samples := collect(t, l)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	if last := samples[len(samples)-1].T; last > 1010+7 {
		t.Fatalf("sampler ran to %g, long past the last event at 1010", last)
	}
}

// TestTelemetryByteIdenticalLogs is the determinism guarantee at the core
// level: two runs with the same seed and parameters must produce
// byte-identical JSONL event logs.
func TestTelemetryByteIdenticalLogs(t *testing.T) {
	runLog := func() []byte {
		var buf bytes.Buffer
		cfg := telemetryConfig(policy.Dynamic)
		cfg.Telemetry = telemetry.New(telemetry.Options{
			Sink:           telemetry.NewJSONL(&buf),
			SampleInterval: 30,
		})
		runSim(t, cfg, telemetryWorkload())
		if err := cfg.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runLog(), runLog()
	if len(a) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and parameters produced different event logs")
	}
	// And the log round-trips through the reader, byte for byte.
	log, err := telemetry.ReadLog(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	events, samples := collect(t, log)
	if len(events) == 0 || len(samples) == 0 {
		t.Fatalf("decoded log empty: %d events, %d samples", len(events), len(samples))
	}
	var back bytes.Buffer
	if err := log.WriteJSONL(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), a) {
		t.Fatal("the log read back renders differently from the JSONL it was read from")
	}
}

// TestTelemetryBackfillEvents checks holes and placements reach the stream.
func TestTelemetryBackfillEvents(t *testing.T) {
	mk := func(id int, submit float64, nodes int, runtime, limit float64) *job.Job {
		j := mkJob(id, submit, nodes, 100, runtime, memtrace.Constant(100))
		j.LimitSec = limit
		return j
	}
	jobs := []*job.Job{
		mk(1, 0, 1, 900, 1000),
		mk(2, 10, 2, 100, 200), // head: blocked until job 1 ends
		mk(3, 20, 1, 40, 50),   // short: must backfill
	}
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.EnforceTimeLimit = true
	l := &telemetry.Log{}
	cfg.Telemetry = telemetry.New(telemetry.Options{Sink: l})
	runSim(t, cfg, jobs)
	if cfg.Telemetry.Count(telemetry.KindBackfillHole) == 0 {
		t.Fatal("no backfill_hole events for a blocked head")
	}
	placed := false
	events, _ := collect(t, l)
	for _, e := range events {
		if e.Kind == telemetry.KindBackfillPlace && e.Job == 3 {
			placed = true
		}
	}
	if !placed {
		t.Fatal("job 3 backfilled without a backfill_place event")
	}
}

// TestTelemetryWatermarksFire drives the pool low and expects crossings.
func TestTelemetryWatermarksFire(t *testing.T) {
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	jobs := []*job.Job{
		mkJob(1, 0, 1, 950, 200, memtrace.Constant(900)),
		mkJob(2, 0, 1, 950, 200, memtrace.Constant(900)),
	}
	runSim(t, cfg, jobs)
	if cfg.Telemetry.Count(telemetry.KindPoolWatermark) == 0 {
		t.Fatal("pool dropped to 5% free without a watermark event")
	}
}
