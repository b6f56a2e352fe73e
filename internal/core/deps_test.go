package core

import (
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
)

func depJob(id, dependsOn int, submit, runtime float64) *job.Job {
	j := mkJob(id, submit, 1, 300, runtime, memtrace.Constant(300))
	j.DependsOn = dependsOn
	return j
}

func TestDependencyChainRunsInOrder(t *testing.T) {
	// Three-job chain on a 4-node cluster: despite free nodes, each job
	// waits for its predecessor.
	jobs := []*job.Job{
		depJob(1, 0, 0, 100),
		depJob(2, 1, 0, 100),
		depJob(3, 2, 0, 100),
	}
	res := runSim(t, baseConfig(4, 1000, policy.Static), jobs)
	if res.Completed != 3 {
		t.Fatalf("completed = %d, want 3", res.Completed)
	}
	byID := map[int]JobRecord{}
	for _, r := range res.Records {
		byID[r.Job.ID] = r
	}
	if byID[2].FirstStart < byID[1].Finish {
		t.Fatalf("job 2 started at %g before job 1 finished at %g", byID[2].FirstStart, byID[1].Finish)
	}
	if byID[3].FirstStart < byID[2].Finish {
		t.Fatalf("job 3 started at %g before job 2 finished at %g", byID[3].FirstStart, byID[2].Finish)
	}
}

func TestHeldJobDoesNotBlockQueue(t *testing.T) {
	// Job 2 depends on the long job 1; job 3 is independent and must
	// start immediately on the free node rather than queue behind the
	// held job 2.
	jobs := []*job.Job{
		depJob(1, 0, 0, 1000),
		depJob(2, 1, 10, 100),
		depJob(3, 0, 20, 100),
	}
	res := runSim(t, baseConfig(2, 1000, policy.Static), jobs)
	byID := map[int]JobRecord{}
	for _, r := range res.Records {
		byID[r.Job.ID] = r
	}
	if byID[3].FirstStart > 100 {
		t.Fatalf("independent job 3 started at %g, held back by the dependent job", byID[3].FirstStart)
	}
	if byID[2].FirstStart < byID[1].Finish {
		t.Fatal("dependent started before its predecessor finished")
	}
}

func TestDependencyOnFailedJobAbandons(t *testing.T) {
	// Job 1 times out; its dependents (a chain) must be abandoned.
	j1 := mkJob(1, 0, 1, 1500, 1000, memtrace.Constant(1500))
	j1.Profile = streamProfile()
	j1.LimitSec = 1000 // will be killed at the limit under contention
	j2 := depJob(2, 1, 10, 100)
	j3 := depJob(3, 2, 10, 100)
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.PerNodeRemoteBW = 1
	cfg.EnforceTimeLimit = true
	res := runSim(t, cfg, []*job.Job{j1, j2, j3})
	if res.TimedOut != 1 {
		t.Fatalf("timed out = %d, want 1", res.TimedOut)
	}
	if res.Abandoned != 2 {
		t.Fatalf("abandoned = %d, want the dependency chain (2)", res.Abandoned)
	}
	for _, r := range res.Records[1:] {
		if r.Outcome != Abandoned || r.FirstStart != -1 {
			t.Fatalf("dependent %d: %+v, want abandoned without starting", r.Job.ID, r)
		}
	}
}

func TestFailedJobZeroSparesIndependentJobs(t *testing.T) {
	// Job 0 times out while a job without a dependency waits for its nodes.
	// DependsOn 0 means "no dependency", not "depends on job 0", so the
	// waiting job must run, not be abandoned with job 0's dependents.
	j0 := mkJob(0, 0, 1, 1500, 1000, memtrace.Constant(1500))
	j0.Profile = streamProfile()
	j0.LimitSec = 1000
	j2 := mkJob(2, 10, 2, 300, 100, memtrace.Constant(300)) // needs both nodes
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.PerNodeRemoteBW = 1
	cfg.EnforceTimeLimit = true
	res := runSim(t, cfg, []*job.Job{j0, j2})
	if res.TimedOut != 1 || res.Completed != 1 || res.Abandoned != 0 {
		t.Fatalf("timed out %d, completed %d, abandoned %d; want 1, 1, 0", res.TimedOut, res.Completed, res.Abandoned)
	}
}

func TestDependencySubmittedAfterFailure(t *testing.T) {
	// The dependent is submitted after its predecessor already failed.
	j1 := mkJob(1, 0, 1, 1500, 1000, memtrace.Constant(1500))
	j1.Profile = streamProfile()
	j1.LimitSec = 1000
	j2 := depJob(2, 1, 5000, 100) // submitted long after the timeout
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.PerNodeRemoteBW = 1
	cfg.EnforceTimeLimit = true
	res := runSim(t, cfg, []*job.Job{j1, j2})
	if res.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", res.Abandoned)
	}
	if res.Records[1].Finish != 5000 {
		t.Fatalf("dependent abandoned at %g, want at submission (5000)", res.Records[1].Finish)
	}
}

func TestDependencyValidation(t *testing.T) {
	// Unknown dependency.
	jobs := []*job.Job{depJob(1, 99, 0, 100)}
	if _, err := New(baseConfig(2, 1000, policy.Static), jobs); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	// Cycle 1 -> 2 -> 1.
	jobs = []*job.Job{depJob(1, 2, 0, 100), depJob(2, 1, 0, 100)}
	if _, err := New(baseConfig(2, 1000, policy.Static), jobs); err == nil {
		t.Fatal("dependency cycle accepted")
	}
	// Self-dependency rejected by job validation.
	j := depJob(5, 5, 0, 100)
	if err := j.Validate(); err == nil {
		t.Fatal("self-dependency accepted")
	}
}

func TestDependencyWithBackfillModes(t *testing.T) {
	for _, mode := range []BackfillMode{EASYBackfill, ConservativeBackfill, NoBackfill} {
		jobs := []*job.Job{
			depJob(1, 0, 0, 200),
			depJob(2, 1, 0, 100),
			depJob(3, 0, 0, 50),
		}
		cfg := baseConfig(2, 1000, policy.Static)
		cfg.Backfill = mode
		res := runSim(t, cfg, jobs)
		if res.Completed != 3 {
			t.Fatalf("%v: completed = %d, want 3", mode, res.Completed)
		}
		byID := map[int]JobRecord{}
		for _, r := range res.Records {
			byID[r.Job.ID] = r
		}
		if byID[2].FirstStart < byID[1].Finish {
			t.Fatalf("%v: dependency violated", mode)
		}
	}
}
