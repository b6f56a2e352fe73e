package telemetry

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < KindCount; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Fatalf("out-of-range kind stringified as %q", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetNow(5)
	r.JobSubmit(1, false)
	r.JobStart(1, 2, 100, 50)
	r.JobEnd(1, "completed", 0)
	r.LeaseGrant(1, 2, 3, 64)
	r.LeaseAdjust(1, 2, -32, -16)
	r.LeaseRevoke(1, 2, 3, 64)
	r.BackfillHole(4, 99)
	r.BackfillPlace(4)
	r.PoolCheck(10, 100)
	r.Sample(1, 2, 3, 4, 5, 6)
	if r.Now() != 0 || r.SampleInterval() != 0 || r.TotalEvents() != 0 || r.Count(KindJobEnd) != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if r.Samples() != 0 {
		t.Fatal("nil recorder counted samples")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilRecorderEmitAllocates locks the zero-cost-when-disabled guarantee:
// the full emit surface on a nil recorder must not allocate.
func TestNilRecorderEmitAllocates(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.SetNow(1)
		r.JobSubmit(1, true)
		r.JobStart(1, 2, 100, 50)
		r.JobEnd(1, "completed", 1)
		r.LeaseGrant(1, 2, 3, 64)
		r.LeaseAdjust(1, 2, 32, 16)
		r.LeaseRevoke(1, 2, 3, 64)
		r.BackfillHole(4, 9)
		r.BackfillPlace(4)
		r.PoolCheck(10, 100)
		r.Sample(1, 2, 3, 4, 5, 6)
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder emit path allocated %v times per run; want 0", allocs)
	}
}

// collector gathers a replayed log's events and samples, each in emission
// order, for tests to inspect.
type collector struct {
	events  []Event
	samples []Sample
}

func (c *collector) Event(e *Event) error   { c.events = append(c.events, *e); return nil }
func (c *collector) Sample(s *Sample) error { c.samples = append(c.samples, *s); return nil }
func (c *collector) Close() error           { return nil }

// collect replays l into a collector.
func collect(t *testing.T, l *Log) *collector {
	t.Helper()
	c := &collector{}
	if err := l.Replay(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRecorderCountsAndClock(t *testing.T) {
	l := &Log{}
	r := New(Options{Sink: l})
	r.SetNow(10)
	r.JobSubmit(1, false)
	r.SetNow(20)
	r.JobStart(1, 4, 1024, 256)
	r.LeaseGrant(1, 0, 9, 256)
	r.SetNow(30)
	r.JobEnd(1, "completed", 0)

	if got := r.TotalEvents(); got != 4 {
		t.Fatalf("TotalEvents = %d, want 4", got)
	}
	if r.Count(KindJobSubmit) != 1 || r.Count(KindLeaseGrant) != 1 {
		t.Fatal("per-kind counts wrong")
	}
	if r.Count(KindCount) != 0 {
		t.Fatal("out-of-range Count must be 0")
	}
	events := collect(t, l).events
	if len(events) != 4 {
		t.Fatalf("sink saw %d events, want 4", len(events))
	}
	if events[0].T != 10 || events[1].T != 20 || events[3].T != 30 {
		t.Fatalf("event timestamps wrong: %+v", events)
	}
	if e := events[1]; e.Node != 4 || e.MB != 1024 || e.Aux != 256 {
		t.Fatalf("JobStart fields wrong: %+v", e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWatermarks(t *testing.T) {
	l := &Log{}
	r := New(Options{Sink: l}) // default {50, 25, 10, 0}
	events := func() []Event { return collect(t, l).events }

	r.PoolCheck(100, 100) // full: nothing
	if ev := events(); len(ev) != 0 {
		t.Fatalf("no watermark expected at full pool, got %d", len(ev))
	}
	r.PoolCheck(50, 100) // exactly 50%: crosses 50
	if ev := events(); len(ev) != 1 || ev[0].Aux != 50 {
		t.Fatalf("want one 50%% crossing, got %+v", ev)
	}
	r.PoolCheck(9, 100) // plunge: crosses 25 and 10 in order
	if ev := events(); len(ev) != 3 || ev[1].Aux != 25 || ev[2].Aux != 10 {
		t.Fatalf("want 25 then 10, got %+v", ev)
	}
	r.PoolCheck(60, 100) // recover: re-arms silently
	if len(events()) != 3 {
		t.Fatal("recovery must not emit")
	}
	r.PoolCheck(40, 100) // re-cross 50
	if ev := events(); len(ev) != 4 || ev[3].Aux != 50 {
		t.Fatalf("re-armed 50%% crossing missing: %+v", ev)
	}
	r.PoolCheck(0, 100) // bottom: 25, 10, 0
	if ev := events(); len(ev) != 7 || ev[6].Aux != 0 {
		t.Fatalf("want crossings down to 0, got %+v", ev)
	}
	if r.Count(KindPoolWatermark) != 7 {
		t.Fatalf("watermark count = %d, want 7", r.Count(KindPoolWatermark))
	}
}

func TestWatermarksCustomAndDisabled(t *testing.T) {
	l := &Log{}
	r := New(Options{Sink: l, Watermarks: []int{30}})
	r.PoolCheck(31, 100)
	r.PoolCheck(30, 100)
	if ev := collect(t, l).events; len(ev) != 1 || ev[0].Aux != 30 {
		t.Fatalf("custom watermark: got %+v", ev)
	}

	l2 := &Log{}
	r2 := New(Options{Sink: l2, Watermarks: []int{}})
	r2.PoolCheck(0, 100)
	if len(collect(t, l2).events) != 0 {
		t.Fatal("explicit empty watermark list must disable crossings")
	}
}

// TestSeries checks the sampled series a recorder forwards: every sample,
// field for field and in order, and the recorder's sample count.
func TestSeries(t *testing.T) {
	l := &Log{}
	r := New(Options{Sink: l})
	want := []Sample{
		{T: 0, FreeMB: 100, LentMB: 0, Queue: 3, Busy: 2, Running: 1},
		{T: 10, FreeMB: 40, LentMB: 60, Queue: 7, Busy: 5, Running: 4},
		{T: 20, FreeMB: 80, LentMB: 20, Queue: 1, Busy: 2, Running: 2},
	}
	for _, sm := range want {
		r.Sample(sm.T, sm.FreeMB, sm.LentMB, sm.Queue, sm.Busy, sm.Running)
	}
	if r.Samples() != 3 {
		t.Fatalf("Samples = %d, want 3", r.Samples())
	}
	if got := collect(t, l).samples; !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	if r.TotalEvents() != 0 {
		t.Fatal("samples counted as events")
	}
}

func emitFixture(r *Recorder) {
	r.SetNow(0)
	r.JobSubmit(1, false)
	r.Sample(0, 1000, 0, 1, 0, 0)
	r.SetNow(5)
	r.JobStart(1, 2, 512, 128)
	r.LeaseGrant(1, 0, 3, 128)
	r.BackfillHole(2, math.Inf(1))
	r.PoolCheck(40, 100)
	r.SetNow(9)
	r.JobEnd(1, "oom-killed", 1)
	r.LeaseRevoke(1, 0, 3, 128)
	r.Sample(10, 1000, 0, 0, 0, 0)
}

func TestJSONLByteDeterminismAndRoundTrip(t *testing.T) {
	var buf1, buf2 bytes.Buffer
	for _, buf := range []*bytes.Buffer{&buf1, &buf2} {
		r := New(Options{Sink: NewJSONL(buf)})
		emitFixture(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("identical emissions produced different JSONL bytes")
	}

	log, err := ReadLog(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture interleaves samples with events and carries a +Inf
	// reservation: the log read back renders to the same bytes.
	var back bytes.Buffer
	if err := log.WriteJSONL(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), buf1.Bytes()) {
		t.Fatalf("log read back renders differently:\n%s", firstDiff(back.Bytes(), buf1.Bytes()))
	}
	c := collect(t, log)
	if len(c.events) != 7 {
		t.Fatalf("decoded %d events, want 7", len(c.events))
	}
	if len(c.samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(c.samples))
	}
	// The +Inf reservation must survive the string encoding round trip.
	var hole *Event
	var counts [KindCount]int
	for i := range c.events {
		counts[c.events[i].Kind]++
		if c.events[i].Kind == KindBackfillHole {
			hole = &c.events[i]
		}
	}
	if hole == nil || !math.IsInf(hole.V, 1) {
		t.Fatalf("backfill hole V did not round-trip +Inf: %+v", hole)
	}
	if counts[KindJobSubmit] != 1 || counts[KindPoolWatermark] != 1 || counts[KindJobEnd] != 1 {
		t.Fatalf("decoded counts wrong: %v", counts)
	}
	if c.events[5].Detail != "oom-killed" || c.events[5].Aux != 1 {
		t.Fatalf("JobEnd detail lost: %+v", c.events[5])
	}
}

func TestReadLogRejectsUnknownEvent(t *testing.T) {
	_, err := ReadLog(strings.NewReader(`{"t":1,"ev":"mystery"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown event") {
		t.Fatalf("want unknown-event error, got %v", err)
	}
}

type failSink struct{ Log }

func (f *failSink) Event(e *Event) error { return errors.New("disk full") }

func TestSinkErrorSurfacedOnce(t *testing.T) {
	r := New(Options{Sink: &failSink{}})
	r.JobSubmit(1, false)
	r.JobSubmit(2, false)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "disk full") {
		t.Fatalf("sink error not captured: %v", r.Err())
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close must surface the first sink error")
	}
	if r.TotalEvents() != 2 {
		t.Fatal("counting must continue after a sink error")
	}
}

func TestMultiSinkFanOut(t *testing.T) {
	a, b := &Log{}, &Log{}
	m := MultiSink{a, b}
	r := New(Options{Sink: m})
	r.JobSubmit(1, false)
	r.Sample(0, 1, 2, 3, 4, 5)
	ca, cb := collect(t, a), collect(t, b)
	if len(ca.events) != 1 || len(cb.events) != 1 || len(ca.samples) != 1 || len(cb.samples) != 1 {
		t.Fatal("fan-out missed a child")
	}
}

func TestPromSink(t *testing.T) {
	p := NewPromSink()
	r := New(Options{Sink: p})
	emitFixture(r)
	r.LeaseAdjust(1, 0, -2048, -1024)

	var out bytes.Buffer
	if err := p.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`dismem_events_total{kind="job_submit"} 1`,
		`dismem_events_total{kind="lease_adjust"} 1`,
		`dismem_jobs_oom_killed_total 1`,
		`dismem_pool_samples_total 2`,
		`dismem_pool_free_mb 1000`,
		`dismem_lease_grant_mb_bucket{le="256"} 1`,
		`dismem_lease_grant_mb_sum 128`,
		`dismem_lease_adjust_abs_mb_sum 2048`,
		`dismem_queue_depth_count 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Inf != 1 {
		t.Fatalf("bucket counts wrong: %+v", h)
	}
	if h.Sum != 1026 || h.N != 4 {
		t.Fatalf("sum/count wrong: %+v", h)
	}
	var out bytes.Buffer
	if err := h.WriteText(&out, "x"); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE x histogram\nx_bucket{le=\"10\"} 2\nx_bucket{le=\"100\"} 3\nx_bucket{le=\"+Inf\"} 4\nx_sum 1026\nx_count 4\n"
	if out.String() != want {
		t.Fatalf("exposition = %q, want %q", out.String(), want)
	}
}

// TestAggregateFromLog rebuilds the run-level aggregates from a JSONL log
// read back and replayed into a PromSink: they match the aggregates the
// sink gathered live.
func TestAggregateFromLog(t *testing.T) {
	var buf bytes.Buffer
	live := NewPromSink()
	r := New(Options{Sink: MultiSink{NewJSONL(&buf), live}})
	emitFixture(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPromSink()
	if err := log.Replay(p); err != nil {
		t.Fatal(err)
	}
	var out, want bytes.Buffer
	if err := p.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if err := live.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `dismem_pool_samples_total 2`) {
		t.Fatalf("rebuilt aggregates wrong:\n%s", out.String())
	}
	if out.String() != want.String() {
		t.Fatalf("rebuilt aggregates differ from the live ones:\n%s\nwant\n%s", out.String(), want.String())
	}
}
