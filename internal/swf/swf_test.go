package swf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dismem/internal/job"
	"dismem/internal/memtrace"
)

const sample = `; Version: 2.2
; Computer: test cluster
1 0 -1 3600 64 -1 2048 64 7200 4096 1 10 2 -1 1 -1 -1 -1
2 120 -1 60 32 -1 -1 32 600 1024 0 11 2 -1 1 -1 -1 -1
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Header) != 2 {
		t.Fatalf("header lines = %d, want 2", len(f.Header))
	}
	if f.Header[0] != "Version: 2.2" {
		t.Fatalf("header[0] = %q", f.Header[0])
	}
	if len(f.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(f.Records))
	}
	r := f.Records[0]
	if r.JobID != 1 || r.RunTime != 3600 || r.AllocProcs != 64 ||
		r.ReqMemKB != 4096 || r.Status != StatusCompleted {
		t.Fatalf("record 0 mis-parsed: %+v", r)
	}
	if f.Records[1].UsedMemKB != -1 {
		t.Fatalf("missing value must parse as -1, got %d", f.Records[1].UsedMemKB)
	}
}

func TestParseRejectsBadLines(t *testing.T) {
	if _, err := Parse(strings.NewReader("1 2 3\n")); !errors.Is(err, ErrFormat) {
		t.Fatalf("short line: err = %v, want ErrFormat", err)
	}
	if _, err := Parse(strings.NewReader(strings.Repeat("x ", 18) + "\n")); !errors.Is(err, ErrFormat) {
		t.Fatalf("non-numeric: err = %v, want ErrFormat", err)
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	f, err := Parse(strings.NewReader("\n\n; hi\n\n" + strings.TrimPrefix(sample, "; Version: 2.2\n; Computer: test cluster\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(f.Records))
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	f2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, f2) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", f, f2)
	}
}

func TestFromJobs(t *testing.T) {
	j := &job.Job{
		ID: 7, SubmitTime: 100, Nodes: 2, RequestMB: 2048,
		LimitSec: 7200, BaseRuntime: 3600,
		Usage: memtrace.Constant(1024),
	}
	f := FromJobs([]*job.Job{j}, 32, "generated")
	if len(f.Records) != 1 {
		t.Fatalf("records = %d", len(f.Records))
	}
	r := f.Records[0]
	if r.ReqProcs != 64 {
		t.Fatalf("procs = %d, want 64", r.ReqProcs)
	}
	// 2048 MB/node over 32 cores = 64 MB/core = 65536 KB/core.
	if r.ReqMemKB != 65536 {
		t.Fatalf("req mem = %d KB/proc, want 65536", r.ReqMemKB)
	}
	if r.UsedMemKB != 32768 {
		t.Fatalf("used mem = %d KB/proc, want 32768", r.UsedMemKB)
	}
}

func TestToJobs(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := ToJobs(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.Nodes != 2 {
		t.Fatalf("nodes = %d, want 2 (64 procs / 32 cores)", j.Nodes)
	}
	// 4096 KB/proc × 32 procs/node = 128 MB/node.
	if j.RequestMB != 128 {
		t.Fatalf("request = %d MB/node, want 128", j.RequestMB)
	}
	if j.LimitSec != 7200 || j.BaseRuntime != 3600 {
		t.Fatalf("times mis-converted: %+v", j)
	}
	if _, err := ToJobs(f, 0); err == nil {
		t.Fatal("cores=0 accepted")
	}
}

func TestToJobsPartialNodeRoundsUp(t *testing.T) {
	f := &File{Records: []Record{{JobID: 1, ReqProcs: 33, RunTime: 10, ReqTime: 20, ReqMemKB: 1024}}}
	jobs, err := ToJobs(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Nodes != 2 {
		t.Fatalf("nodes = %d, want 2 (33 procs round up)", jobs[0].Nodes)
	}
}

func TestToJobsLimitNeverBelowRuntime(t *testing.T) {
	f := &File{Records: []Record{{JobID: 1, ReqProcs: 32, RunTime: 100, ReqTime: 50}}}
	jobs, err := ToJobs(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].LimitSec != 100 {
		t.Fatalf("limit = %g, want clamped to runtime 100", jobs[0].LimitSec)
	}
}

// Property: Write∘Parse is the identity on arbitrary integral records.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &File{Header: []string{"quick"}}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			in.Records = append(in.Records, Record{
				JobID:          i + 1,
				SubmitTime:     float64(rng.Intn(1 << 20)),
				WaitTime:       -1,
				RunTime:        float64(rng.Intn(1 << 18)),
				AllocProcs:     rng.Intn(4096),
				AvgCPUTime:     -1,
				UsedMemKB:      rng.Int63n(1 << 30),
				ReqProcs:       rng.Intn(4096),
				ReqTime:        float64(rng.Intn(1 << 18)),
				ReqMemKB:       rng.Int63n(1 << 30),
				Status:         []int{-1, 0, 1, 5}[rng.Intn(4)],
				UserID:         rng.Intn(100),
				GroupID:        rng.Intn(10),
				ExecutableID:   -1,
				QueueID:        rng.Intn(4),
				PartitionID:    -1,
				PrecedingJobID: -1,
				ThinkTime:      -1,
			})
		}
		var buf bytes.Buffer
		if Write(&buf, in) != nil {
			return false
		}
		out, err := Parse(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDependencyRoundTrip(t *testing.T) {
	j := &job.Job{
		ID: 2, SubmitTime: 10, Nodes: 1, RequestMB: 100,
		LimitSec: 200, BaseRuntime: 100, DependsOn: 1,
		Usage: memtrace.Constant(50),
	}
	f := FromJobs([]*job.Job{j}, 32)
	if f.Records[0].PrecedingJobID != 1 {
		t.Fatalf("preceding = %d, want 1", f.Records[0].PrecedingJobID)
	}
	back, err := ToJobs(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].DependsOn != 1 {
		t.Fatalf("depends = %d, want 1", back[0].DependsOn)
	}
	// No dependency encodes as the SWF missing value.
	j.DependsOn = 0
	f = FromJobs([]*job.Job{j}, 32)
	if f.Records[0].PrecedingJobID != -1 {
		t.Fatalf("preceding = %d, want -1", f.Records[0].PrecedingJobID)
	}
}

// ToJobs converts SWF records back into partially filled simulator jobs,
// the reference the round-trip tests hold FromJobs to. Usage traces and
// profiles are not representable in SWF, so Validate fails on its jobs.
func ToJobs(f *File, coresPerNode int) ([]*job.Job, error) {
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("swf: non-positive cores per node %d", coresPerNode)
	}
	jobs := make([]*job.Job, 0, len(f.Records))
	for i := range f.Records {
		r := &f.Records[i]
		nodes := r.ReqProcs / coresPerNode
		if r.ReqProcs%coresPerNode != 0 || nodes == 0 {
			nodes++ // partial node still occupies a whole one (exclusive)
		}
		limit := r.ReqTime
		if limit < r.RunTime {
			limit = r.RunTime
		}
		dependsOn := 0
		if r.PrecedingJobID > 0 {
			dependsOn = r.PrecedingJobID
		}
		jobs = append(jobs, &job.Job{
			ID:          r.JobID,
			SubmitTime:  r.SubmitTime,
			Nodes:       nodes,
			RequestMB:   r.ReqMemKB * int64(coresPerNode) / 1024,
			LimitSec:    limit,
			BaseRuntime: r.RunTime,
			DependsOn:   dependsOn,
		})
	}
	return jobs, nil
}
