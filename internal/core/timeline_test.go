package core

import (
	"bytes"
	"strings"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
)

func TestTimelineTracksOccupancy(t *testing.T) {
	tl := NewTimeline()
	cfg := baseConfig(3, 1000, policy.Dynamic)
	cfg.Observer = tl
	jobs := []*job.Job{
		mkJob(1, 0, 2, 800, 2000, memtrace.Constant(200)),
		mkJob(2, 100, 1, 500, 500, memtrace.Constant(400)),
	}
	res := runSim(t, cfg, jobs)
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if len(tl.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// The final sample must show an empty system.
	last := tl.Samples[len(tl.Samples)-1]
	if last.AllocMB != 0 || last.BusyNodes != 0 || last.Queued != 0 || last.Running != 0 {
		t.Fatalf("final sample not empty: %+v", last)
	}
	// Peak allocation covers both jobs (2×800 + 1×500) before job 1's
	// first usage update shrinks it.
	var peak int64
	for _, s := range tl.Samples {
		peak = max(peak, s.AllocMB)
	}
	if peak < 2100 {
		t.Fatalf("peak alloc = %d, want ≥ 2100", peak)
	}
	// Samples are time-ordered.
	for i := 1; i < len(tl.Samples); i++ {
		if tl.Samples[i].T < tl.Samples[i-1].T {
			t.Fatal("samples not time-ordered")
		}
	}
}

func TestTimelineQueueDepth(t *testing.T) {
	tl := NewTimeline()
	cfg := baseConfig(1, 1000, policy.Static)
	cfg.Observer = tl
	var jobs []*job.Job
	for i := 1; i <= 5; i++ {
		jobs = append(jobs, mkJob(i, 0, 1, 500, 100, memtrace.Constant(500)))
	}
	runSim(t, cfg, jobs)
	// All five submitted at t=0; one starts immediately, four queue.
	if got := tl.PeakQueued(); got != 4 && got != 5 {
		t.Fatalf("peak queue = %d, want 4 or 5", got)
	}
}

func TestTimelineOOMAccounting(t *testing.T) {
	tl := NewTimeline()
	usage := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 400, MB: 5000}})
	j := mkJob(1, 0, 1, 200, 2000, usage)
	cfg := baseConfig(2, 1000, policy.Dynamic)
	cfg.MaxRestarts = 2
	cfg.Observer = tl
	runSim(t, cfg, []*job.Job{j})
	last := tl.Samples[len(tl.Samples)-1]
	if last.AllocMB != 0 || last.Running != 0 || last.Queued != 0 {
		t.Fatalf("OOM path leaked occupancy: %+v", last)
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := NewTimeline()
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.Observer = tl
	runSim(t, cfg, []*job.Job{mkJob(1, 0, 1, 500, 100, memtrace.Constant(500))})
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t,alloc_mb,busy_nodes,queued,running" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines)-1 != len(tl.Samples) {
		t.Fatalf("csv rows = %d, samples = %d", len(lines)-1, len(tl.Samples))
	}
}

func TestWriteJobsCSV(t *testing.T) {
	cfg := baseConfig(2, 1000, policy.Dynamic)
	jobs := []*job.Job{
		mkJob(1, 0, 1, 500, 100, memtrace.Constant(400)),
		mkJob(2, 10, 1, 500, 200, memtrace.Constant(400)),
	}
	res := runSim(t, cfg, jobs)
	var buf bytes.Buffer
	if err := res.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,nodes,request_mb") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "completed") {
		t.Fatalf("row = %q, want completed outcome", lines[1])
	}
}
