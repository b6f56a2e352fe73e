package job

import (
	"errors"
	"testing"
	"testing/quick"

	"dismem/internal/memtrace"
	"dismem/internal/slowdown"
)

func validJob() *Job {
	return &Job{
		ID:          1,
		SubmitTime:  0,
		Nodes:       4,
		RequestMB:   2048,
		LimitSec:    7200,
		BaseRuntime: 3600,
		Usage:       memtrace.Constant(1024),
		Profile:     &slowdown.Profile{Name: "p", Nodes: 1, RuntimeSec: 1, BandwidthGBs: 1},
	}
}

func TestValidateAcceptsGoodJob(t *testing.T) {
	if err := validJob().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"zero nodes", func(j *Job) { j.Nodes = 0 }},
		{"negative request", func(j *Job) { j.RequestMB = -1 }},
		{"negative submit", func(j *Job) { j.SubmitTime = -5 }},
		{"zero runtime", func(j *Job) { j.BaseRuntime = 0 }},
		{"limit below runtime", func(j *Job) { j.LimitSec = j.BaseRuntime / 2 }},
		{"nil usage", func(j *Job) { j.Usage = nil }},
		{"nil profile", func(j *Job) { j.Profile = nil }},
	}
	for _, tc := range cases {
		j := validJob()
		tc.mutate(j)
		if err := j.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	j := validJob()
	if got := j.TotalRequestMB(); got != 4*2048 {
		t.Fatalf("total request = %d, want %d", got, 4*2048)
	}
	if got := j.PeakUsageMB(); got != 1024 {
		t.Fatalf("peak = %d, want 1024", got)
	}
	if got := j.NodeHours(); got != 4 {
		t.Fatalf("node-hours = %g, want 4 (4 nodes × 1 h)", got)
	}
}

func TestClassFor(t *testing.T) {
	j := validJob()
	j.RequestMB = 64 * 1024
	if got := j.ClassFor(64 * 1024); got != Normal {
		t.Fatalf("request == capacity: class %v, want Normal", got)
	}
	j.RequestMB = 64*1024 + 1
	if got := j.ClassFor(64 * 1024); got != Large {
		t.Fatalf("request > capacity: class %v, want Large", got)
	}
	if Normal.String() != "normal" || Large.String() != "large" {
		t.Fatal("class names wrong")
	}
}

// Property: TotalRequestMB is exactly Nodes × RequestMB for any inputs.
func TestQuickTotalRequest(t *testing.T) {
	f := func(nodes uint8, req uint16) bool {
		j := validJob()
		j.Nodes = int(nodes)%64 + 1
		j.RequestMB = int64(req)
		return j.TotalRequestMB() == int64(j.Nodes)*j.RequestMB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Class partitions jobs by their memory demand relative to a normal node,
// as in the paper: a job is Large if it needs a large-capacity node under
// the baseline policy, Normal if a normal node suffices.
type Class int

const (
	Normal Class = iota
	Large
)

func (c Class) String() string {
	if c == Large {
		return "large"
	}
	return "normal"
}

// ClassFor returns the job's class given the capacity of a normal node:
// Large when its per-node request exceeds a normal node's capacity.
func (j *Job) ClassFor(normalMB int64) Class {
	if j.RequestMB > normalMB {
		return Large
	}
	return Normal
}
