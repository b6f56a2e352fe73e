package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dismem/internal/cluster"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/slowdown"
)

// flatProfile is insensitive to contention, so jobs run at slowdown 1
// regardless of placement — ideal for deterministic timing assertions.
func flatProfile() *slowdown.Profile {
	return &slowdown.Profile{
		Name: "flat", Nodes: 1, RuntimeSec: 100, BandwidthGBs: 1,
		Sens: slowdown.Curve{{Pressure: 0, Penalty: 0}},
	}
}

func streamProfile() *slowdown.Profile {
	return &slowdown.Profile{
		Name: "stream", Nodes: 1, RuntimeSec: 100, BandwidthGBs: 10,
		Sens: slowdown.CurveStream,
	}
}

func mkJob(id int, submit float64, nodes int, reqMB int64, runtime float64, usage *memtrace.Trace) *job.Job {
	return &job.Job{
		ID: id, SubmitTime: submit, Nodes: nodes, RequestMB: reqMB,
		LimitSec: runtime * 10, BaseRuntime: runtime,
		Usage: usage, Profile: flatProfile(),
	}
}

func baseConfig(nodes int, capMB int64, pol policy.Kind) Config {
	return Config{
		Cluster:         cluster.Config{Nodes: nodes, Cores: 32, NormalMB: capMB},
		Policy:          pol,
		UpdateJitter:    1e-12, // effectively none, but explicit
		CheckInvariants: true,
	}
}

func runSim(t *testing.T, cfg Config, jobs []*job.Job) *Result {
	t.Helper()
	s, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleJobCompletes(t *testing.T) {
	for _, pol := range []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic} {
		cfg := baseConfig(2, 1000, pol)
		j := mkJob(1, 10, 1, 500, 1000, memtrace.Constant(400))
		res := runSim(t, cfg, []*job.Job{j})
		if res.Completed != 1 {
			t.Fatalf("%v: completed = %d, want 1", pol, res.Completed)
		}
		r := res.Records[0]
		if r.Outcome != Completed {
			t.Fatalf("%v: outcome = %v", pol, r.Outcome)
		}
		// Submission triggers an immediate scheduling pass.
		if r.FirstStart != 10 {
			t.Fatalf("%v: start = %g, want 10", pol, r.FirstStart)
		}
		if math.Abs(r.Finish-1010) > 1e-6 {
			t.Fatalf("%v: finish = %g, want 1010", pol, r.Finish)
		}
		if rt := r.ResponseTime(); math.Abs(rt-1000) > 1e-6 {
			t.Fatalf("%v: response = %g, want 1000", pol, rt)
		}
	}
}

func TestFIFOQueueing(t *testing.T) {
	cfg := baseConfig(1, 1000, policy.Static)
	jobs := []*job.Job{
		mkJob(1, 0, 1, 800, 100, memtrace.Constant(800)),
		mkJob(2, 1, 1, 800, 100, memtrace.Constant(800)),
	}
	res := runSim(t, cfg, jobs)
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
	r2 := res.Records[1]
	if r2.FirstStart < 100 {
		t.Fatalf("job 2 started at %g, before job 1 finished at 100", r2.FirstStart)
	}
	// It should start promptly after the completion-triggered pass.
	if r2.FirstStart > 130 {
		t.Fatalf("job 2 started at %g, want within a tick of 100", r2.FirstStart)
	}
}

func TestBackfillShortJobJumpsLongHead(t *testing.T) {
	// 2-node cluster. Job A holds one node for 1000 s. Head job B needs
	// both nodes. Short job C (limit 50) can backfill onto the free
	// node; long job D (limit 5000) cannot.
	mk := func(id int, submit float64, nodes int, runtime, limit float64) *job.Job {
		j := mkJob(id, submit, nodes, 100, runtime, memtrace.Constant(100))
		j.LimitSec = limit
		return j
	}
	jobs := []*job.Job{
		mk(1, 0, 1, 900, 1000),
		mk(2, 10, 2, 100, 200),  // head: blocked until job 1 ends
		mk(3, 20, 1, 40, 50),    // short: must backfill
		mk(4, 20, 1, 900, 5000), // long: must wait for the head
	}
	cfg := baseConfig(2, 1000, policy.Static)
	res := runSim(t, cfg, jobs)
	if res.Completed != 4 {
		t.Fatalf("completed = %d, want 4", res.Completed)
	}
	starts := map[int]float64{}
	for _, r := range res.Records {
		starts[r.Job.ID] = r.FirstStart
	}
	if starts[3] >= starts[2] {
		t.Fatalf("short job started at %g, head at %g: no backfill", starts[3], starts[2])
	}
	if starts[4] < starts[2] {
		t.Fatalf("long job started at %g before head at %g: backfill delayed the head", starts[4], starts[2])
	}
}

func TestBaselineInfeasibleLargeRequest(t *testing.T) {
	j := mkJob(1, 0, 1, 1500, 100, memtrace.Constant(1500))
	resB := runSim(t, baseConfig(4, 1000, policy.Baseline), []*job.Job{j})
	if !resB.Infeasible || resB.InfeasibleJob != 1 {
		t.Fatalf("baseline: infeasible = %v (job %d), want true (job 1)", resB.Infeasible, resB.InfeasibleJob)
	}
	resS := runSim(t, baseConfig(4, 1000, policy.Static), []*job.Job{j})
	if resS.Infeasible {
		t.Fatal("static: 1500MB on a 4000MB pool must be feasible")
	}
	if resS.Completed != 1 {
		t.Fatalf("static: completed = %d, want 1", resS.Completed)
	}
}

func TestDynamicReclaimsOverallocation(t *testing.T) {
	// Three nodes of 1000 MB. Job 1 runs on two nodes requesting
	// 1500 MB/node, borrowing 500+500 from node 2, which becomes a
	// memory node. It only uses 100 MB/node. Job 2 (1×800) must wait
	// under Static (no compute-available node) but starts right after
	// the first usage update frees node 2 under Dynamic.
	jobs := func() []*job.Job {
		return []*job.Job{
			mkJob(1, 0, 2, 1500, 5000, memtrace.Constant(100)),
			mkJob(2, 10, 1, 800, 100, memtrace.Constant(700)),
		}
	}
	// Static: job 2 waits the whole 5000 s.
	resS := runSim(t, baseConfig(3, 1000, policy.Static), jobs())
	s2 := resS.Records[1]
	if s2.FirstStart < 5000 {
		t.Fatalf("static: job 2 started at %g, want after job 1 at 5000", s2.FirstStart)
	}
	// Dynamic: job 1's allocation shrinks to ~100/node at the first
	// update (~300 s), freeing room.
	resD := runSim(t, baseConfig(3, 1000, policy.Dynamic), jobs())
	d2 := resD.Records[1]
	if d2.FirstStart > 400 {
		t.Fatalf("dynamic: job 2 started at %g, want shortly after the first update (~300)", d2.FirstStart)
	}
	if resD.Completed != 2 || resD.OOMKills != 0 {
		t.Fatalf("dynamic: completed=%d oom=%d", resD.Completed, resD.OOMKills)
	}
}

func TestDynamicGrowsWithUsage(t *testing.T) {
	// Usage ramps from 100 to 900; the allocation must follow it up
	// without OOM on an otherwise idle system.
	usage := memtrace.MustNew([]memtrace.Point{
		{T: 0, MB: 100}, {T: 1000, MB: 500}, {T: 2000, MB: 900},
	})
	j := mkJob(1, 0, 1, 900, 3000, usage)
	res := runSim(t, baseConfig(2, 1000, policy.Dynamic), []*job.Job{j})
	if res.Completed != 1 || res.OOMKills != 0 {
		t.Fatalf("completed=%d oom=%d, want 1/0", res.Completed, res.OOMKills)
	}
}

func TestOOMFailRestartThenAbandon(t *testing.T) {
	// The job's usage grows beyond the entire pool, so every attempt
	// OOMs; after MaxRestarts it is abandoned.
	usage := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 400, MB: 5000}})
	j := mkJob(1, 0, 1, 200, 2000, usage)
	cfg := baseConfig(2, 1000, policy.Dynamic)
	cfg.MaxRestarts = 3
	res := runSim(t, cfg, []*job.Job{j})
	if res.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", res.Abandoned)
	}
	if res.OOMKills != 3 {
		t.Fatalf("oom kills = %d, want 3", res.OOMKills)
	}
	if res.Records[0].Outcome != Abandoned {
		t.Fatalf("outcome = %v, want Abandoned", res.Records[0].Outcome)
	}
}

func TestOOMCheckpointRestartRetainsProgress(t *testing.T) {
	// Job B grows to 1200 MB at progress 300, which OOMs while job A
	// (900 MB) occupies the pool. A finishes at t=500; B's retry then
	// succeeds. Under C/R the retry resumes from progress ~300, so B
	// finishes earlier than under F/R.
	mkJobs := func() []*job.Job {
		a := mkJob(1, 0, 1, 900, 500, memtrace.Constant(900))
		bUsage := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 300, MB: 1200}})
		b := mkJob(2, 0, 1, 100, 1000, bUsage)
		return []*job.Job{a, b}
	}
	run := func(mode OOMMode) *Result {
		cfg := baseConfig(2, 1000, policy.Dynamic)
		cfg.OOM = mode
		cfg.UpdateInterval = 100
		return runSim(t, cfg, mkJobs())
	}
	fr := run(FailRestart)
	cr := run(CheckpointRestart)
	if fr.Completed != 2 || cr.Completed != 2 {
		t.Fatalf("completed: fr=%d cr=%d, want 2/2", fr.Completed, cr.Completed)
	}
	if fr.OOMKills == 0 || cr.OOMKills == 0 {
		t.Fatalf("oom kills: fr=%d cr=%d, want >0", fr.OOMKills, cr.OOMKills)
	}
	frB := fr.Records[1].Finish
	crB := cr.Records[1].Finish
	if crB >= frB {
		t.Fatalf("C/R finish %g not earlier than F/R finish %g", crB, frB)
	}
}

func TestContentionSlowsRemoteJobs(t *testing.T) {
	// A fully local job runs at base runtime; a job with remote memory
	// under a saturated fabric takes longer.
	local := mkJob(1, 0, 1, 500, 1000, memtrace.Constant(500))
	res := runSim(t, baseConfig(2, 1000, policy.Static), []*job.Job{local})
	if got := res.Records[0].Finish; math.Abs(got-1000) > 1e-6 {
		t.Fatalf("local job finish = %g, want 1000", got)
	}

	remote := mkJob(2, 0, 1, 1500, 1000, memtrace.Constant(1500))
	remote.Profile = streamProfile()
	remote.LimitSec = 1e9
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.PerNodeRemoteBW = 1 // tiny fabric: heavy contention
	res2 := runSim(t, cfg, []*job.Job{remote})
	if res2.Completed != 1 {
		t.Fatalf("remote job did not complete: %+v", res2.Records[0])
	}
	if got := res2.Records[0].Finish; got <= 1000 {
		t.Fatalf("remote job finish = %g, want > 1000 (slowdown)", got)
	}
}

func TestTimeLimitEnforced(t *testing.T) {
	remote := mkJob(1, 0, 1, 1500, 1000, memtrace.Constant(1500))
	remote.Profile = streamProfile()
	remote.LimitSec = 1000 // no headroom: any slowdown kills it
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.PerNodeRemoteBW = 1
	cfg.EnforceTimeLimit = true
	res := runSim(t, cfg, []*job.Job{remote})
	if res.TimedOut != 1 {
		t.Fatalf("timed out = %d, want 1", res.TimedOut)
	}
	r := res.Records[0]
	if r.Outcome != TimedOut || math.Abs(r.Finish-1000) > 1e-6 {
		t.Fatalf("record = %+v, want TimedOut at 1000", r)
	}
}

func TestHorizonLeavesPending(t *testing.T) {
	cfg := baseConfig(1, 1000, policy.Static)
	cfg.Horizon = 50
	j := mkJob(1, 0, 1, 100, 1000, memtrace.Constant(100))
	res := runSim(t, cfg, []*job.Job{j})
	if res.Completed != 0 {
		t.Fatalf("completed = %d, want 0", res.Completed)
	}
	if res.Records[0].Outcome != Pending {
		t.Fatalf("outcome = %v, want Pending", res.Records[0].Outcome)
	}
	if res.Records[0].ResponseTime() != -1 {
		t.Fatal("pending job must have no response time")
	}
}

func TestUtilisationAccounting(t *testing.T) {
	cfg := baseConfig(2, 1000, policy.Static)
	j := mkJob(1, 0, 2, 600, 1000, memtrace.Constant(500))
	res := runSim(t, cfg, []*job.Job{j})
	// Allocation: 2 nodes × 600 MB × 1000 s.
	wantAlloc := 2.0 * 600 * 1000
	if math.Abs(res.AllocMBSeconds-wantAlloc) > 1 {
		t.Fatalf("alloc MB·s = %g, want %g", res.AllocMBSeconds, wantAlloc)
	}
	// Usage: 2 nodes × 500 MB × 1000 s.
	wantUsed := 2.0 * 500 * 1000
	if math.Abs(res.UsedMBSeconds-wantUsed) > 1 {
		t.Fatalf("used MB·s = %g, want %g", res.UsedMBSeconds, wantUsed)
	}
	if math.Abs(res.BusyNodeSeconds-2000) > 1e-6 {
		t.Fatalf("busy node·s = %g, want 2000", res.BusyNodeSeconds)
	}
	if u := res.MemoryUtilisation(); math.Abs(u-0.5) > 1e-3 {
		t.Fatalf("memory utilisation = %g, want 0.5", u)
	}
	if u := res.NodeUtilisation(); math.Abs(u-1.0) > 1e-3 {
		t.Fatalf("node utilisation = %g, want 1.0", u)
	}
}

func TestDuplicateJobIDRejected(t *testing.T) {
	jobs := []*job.Job{
		mkJob(1, 0, 1, 100, 100, memtrace.Constant(100)),
		mkJob(1, 5, 1, 100, 100, memtrace.Constant(100)),
	}
	if _, err := New(baseConfig(2, 1000, policy.Static), jobs); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := Config{Cluster: cluster.Config{Nodes: 2}}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("config without node capacity accepted")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	gen := func() []*job.Job {
		rng := rand.New(rand.NewSource(7))
		var jobs []*job.Job
		for i := 1; i <= 40; i++ {
			use := 50 + rng.Int63n(900)
			jobs = append(jobs, mkJob(i, float64(rng.Intn(5000)), 1+rng.Intn(3),
				use+rng.Int63n(200), 100+float64(rng.Intn(2000)), memtrace.Constant(use)))
		}
		return jobs
	}
	cfg := baseConfig(8, 1000, policy.Dynamic)
	cfg.Seed = 42
	a := runSim(t, cfg, gen())
	b := runSim(t, cfg, gen())
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("same seed produced different results")
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %g vs %g", a.Makespan, b.Makespan)
	}
}

// Property: for random feasible workloads, every job reaches a terminal
// state, counters are consistent, and ledger invariants hold throughout
// (CheckInvariants panics inside the run otherwise).
func TestQuickWorkloadConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		polKind := []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}[rng.Intn(3)]
		cfg := baseConfig(6, 1024, polKind)
		cfg.Seed = seed
		cfg.UpdateInterval = 60
		var jobs []*job.Job
		n := 5 + rng.Intn(25)
		for i := 1; i <= n; i++ {
			nodes := 1 + rng.Intn(3)
			peak := 64 + rng.Int63n(960) // ≤1024 so baseline stays feasible
			var pts []memtrace.Point
			tm := 0.0
			for k := 0; k < 1+rng.Intn(4); k++ {
				pts = append(pts, memtrace.Point{T: tm, MB: 32 + rng.Int63n(peak-31)})
				tm += 50 + rng.Float64()*500
			}
			usage := memtrace.MustNew(pts)
			j := mkJob(i, rng.Float64()*3000, nodes, peak, 100+rng.Float64()*1500, usage)
			jobs = append(jobs, j)
		}
		s, err := New(cfg, jobs)
		if err != nil {
			return false
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		if res.Infeasible {
			return false // peak ≤ capacity keeps everything feasible
		}
		terminal := res.Completed + res.TimedOut + res.Abandoned
		pending := 0
		for _, r := range res.Records {
			if r.Outcome == Pending {
				pending++
			}
		}
		return terminal+pending == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// errInterruptTest is the sentinel a test Interrupt returns; Run must
// surface it wrapped so callers can errors.Is it back out (the daemon
// matches context.Canceled this way).
var errInterruptTest = errors.New("client went away")

func interruptScenario() (Config, []*job.Job) {
	cfg := baseConfig(4, 1000, policy.Dynamic)
	cfg.CheckInvariants = false
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, mkJob(i+1, float64(i)*7, 1, 200, 500, memtrace.Constant(150)))
	}
	return cfg, jobs
}

// An Interrupt that fails immediately aborts the run before any event and
// surfaces the cause wrapped.
func TestInterruptAbortsRun(t *testing.T) {
	cfg, jobs := interruptScenario()
	cfg.Interrupt = func() error { return errInterruptTest }
	s, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err == nil || res != nil {
		t.Fatalf("Run = (%v, %v), want interrupt error", res, err)
	}
	if !errors.Is(err, errInterruptTest) {
		t.Fatalf("err = %v, does not wrap the interrupt cause", err)
	}
}

// An Interrupt that never fires must not perturb the simulation: the Result
// is deeply equal to the run without one, polls included.
func TestInterruptNilIsPure(t *testing.T) {
	cfg, jobs := interruptScenario()
	base := runSim(t, cfg, jobs)
	cfg2, jobs2 := interruptScenario()
	cfg2.Interrupt = func() error { return nil }
	withPoll := runSim(t, cfg2, jobs2)
	if !reflect.DeepEqual(base, withPoll) {
		t.Fatal("a nil-returning Interrupt changed the Result")
	}
}
