package core

import (
	"math"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/topology"
)

func TestObserverTally(t *testing.T) {
	var tally Tally
	cfg := baseConfig(3, 1000, policy.Dynamic)
	cfg.Observer = &tally
	jobs := []*job.Job{
		mkJob(1, 0, 2, 1500, 5000, memtrace.Constant(100)),
		mkJob(2, 10, 1, 800, 100, memtrace.Constant(700)),
	}
	res := runSim(t, cfg, jobs)
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if tally.Submitted != 2 || tally.Started != 2 || tally.Finished != 2 {
		t.Fatalf("tally = %+v, want 2 submit/start/finish", tally)
	}
	if tally.Resizes == 0 || tally.ReclaimedMB == 0 {
		t.Fatalf("tally = %+v: dynamic run must have reclaiming resizes", tally)
	}
	if tally.OOMKills != 0 || tally.Resubmitted != 0 {
		t.Fatalf("tally = %+v: unexpected OOM activity", tally)
	}
}

func TestObserverOOMEvents(t *testing.T) {
	var tally Tally
	usage := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 400, MB: 5000}})
	j := mkJob(1, 0, 1, 200, 2000, usage)
	cfg := baseConfig(2, 1000, policy.Dynamic)
	cfg.MaxRestarts = 2
	cfg.Observer = &tally
	res := runSim(t, cfg, []*job.Job{j})
	if res.Abandoned != 1 {
		t.Fatalf("abandoned = %d", res.Abandoned)
	}
	if tally.OOMKills != 2 {
		t.Fatalf("observer OOM kills = %d, want 2", tally.OOMKills)
	}
	if tally.Resubmitted != 1 { // second kill abandons instead
		t.Fatalf("resubmitted = %d, want 1", tally.Resubmitted)
	}
	if tally.Finished != 1 {
		t.Fatalf("finished = %d, want 1 (the abandonment)", tally.Finished)
	}
}

func TestDisableBackfill(t *testing.T) {
	mk := func(id int, submit float64, nodes int, runtime, limit float64) *job.Job {
		j := mkJob(id, submit, nodes, 100, runtime, memtrace.Constant(100))
		j.LimitSec = limit
		return j
	}
	jobs := func() []*job.Job {
		return []*job.Job{
			mk(1, 0, 1, 900, 1000),
			mk(2, 10, 2, 100, 200), // head: needs both nodes
			mk(3, 20, 1, 40, 50),   // backfill candidate
		}
	}
	on := runSim(t, baseConfig(2, 1000, policy.Static), jobs())
	cfgOff := baseConfig(2, 1000, policy.Static)
	cfgOff.Backfill = NoBackfill
	off := runSim(t, cfgOff, jobs())

	startOf := func(r *Result, id int) float64 {
		for _, rec := range r.Records {
			if rec.Job.ID == id {
				return rec.FirstStart
			}
		}
		return -1
	}
	if startOf(on, 3) >= startOf(on, 2) {
		t.Fatal("with backfill, job 3 must start before the head")
	}
	if startOf(off, 3) < startOf(off, 2) {
		t.Fatal("without backfill, job 3 must wait behind the head (FIFO)")
	}
}

func TestCheckpointIntervalLosesTailProgress(t *testing.T) {
	// Job B OOMs at progress ~300. With a 250 s checkpoint interval the
	// retained progress is 250, so the C/R retry takes longer than with
	// ideal (continuous) checkpointing.
	mkJobs := func() []*job.Job {
		a := mkJob(1, 0, 1, 900, 500, memtrace.Constant(900))
		bUsage := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 300, MB: 1200}})
		b := mkJob(2, 0, 1, 100, 1000, bUsage)
		return []*job.Job{a, b}
	}
	run := func(ci float64) *Result {
		cfg := baseConfig(2, 1000, policy.Dynamic)
		cfg.OOM = CheckpointRestart
		cfg.CheckpointInterval = ci
		cfg.UpdateInterval = 100
		return runSim(t, cfg, mkJobs())
	}
	ideal := run(0)
	coarse := run(250)
	if ideal.Completed != 2 || coarse.Completed != 2 {
		t.Fatalf("completed: ideal=%d coarse=%d", ideal.Completed, coarse.Completed)
	}
	fi, fc := ideal.Records[1].Finish, coarse.Records[1].Finish
	if fc <= fi {
		t.Fatalf("coarse checkpointing finish %g not later than ideal %g", fc, fi)
	}
	// The lost work is bounded by one checkpoint interval.
	if fc-fi > 250+1 {
		t.Fatalf("lost work %g exceeds one checkpoint interval", fc-fi)
	}
}

func TestTopologyConfigValidation(t *testing.T) {
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.LenderPolicy = NearestFirst
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("nearest-first without topology accepted")
	}
	cfg = baseConfig(2, 1000, policy.Static)
	cfg.HopPenalty = 0.5
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("hop penalty without topology accepted")
	}
	small := topology.Design(1)
	cfg = baseConfig(8, 1000, policy.Static)
	cfg.Topology = &small
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("undersized topology accepted")
	}
}

func TestNearestFirstLenderSelection(t *testing.T) {
	// A 1D ring of 8 nodes. A job on one node borrowing memory must
	// lease from its ring neighbours before distant nodes, even though
	// all lenders are equally free.
	ring, err := topology.New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(8, 1000, policy.Static)
	cfg.Topology = &ring
	cfg.LenderPolicy = NearestFirst
	j := mkJob(1, 0, 1, 2800, 100, memtrace.Constant(2800))
	s, err := New(cfg, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	// Inspect the placement right after dispatch via a horizon stop.
	s.cfg.Horizon = 1
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].FirstStart != 0 {
		t.Fatalf("job did not start: %+v", res.Records[0])
	}
	rj := s.table[0].run
	if rj == nil {
		t.Fatal("job not in running set at horizon")
	}
	borrower := int(rj.alloc.PerNode[0].Node)
	for _, l := range rj.alloc.PerNode[0].Leases {
		if h := ring.Hops(borrower, int(l.Lender)); h > 1 {
			t.Fatalf("lease from node %d at %d hops; nearest-first must use ring neighbours", l.Lender, h)
		}
	}
	if rj.alloc.PerNode[0].RemoteMB() != 1800 {
		t.Fatalf("remote = %d, want 1800", rj.alloc.PerNode[0].RemoteMB())
	}
}

func TestHopPenaltySlowsDistantLeases(t *testing.T) {
	// Same workload under most-free vs nearest-first lending with a hop
	// penalty: nearest-first places leases closer, so the job finishes
	// no later. Use a line-heavy ring so distance matters.
	ring, err := topology.New(16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mkJobs := func() []*job.Job {
		j := mkJob(1, 0, 1, 8000, 1000, memtrace.Constant(8000))
		j.Profile = streamProfile()
		j.LimitSec = 1e9
		return []*job.Job{j}
	}
	run := func(lp LenderPolicy) *Result {
		cfg := baseConfig(16, 1000, policy.Static)
		cfg.Topology = &ring
		cfg.LenderPolicy = lp
		cfg.HopPenalty = 0.5
		cfg.PerNodeRemoteBW = 2
		return runSim(t, cfg, mkJobs())
	}
	mostFree := run(MostFree)
	nearest := run(NearestFirst)
	fm, fn := mostFree.Records[0].Finish, nearest.Records[0].Finish
	if fn > fm+1e-6 {
		t.Fatalf("nearest-first finish %g later than most-free %g", fn, fm)
	}
	// Distance costs something: with the penalty the job must exceed
	// its base runtime under either policy (7000 MB are remote).
	if fm <= 1000 || fn <= 1000 {
		t.Fatalf("remote job unaffected by hop penalty: %g / %g", fm, fn)
	}
}

func TestHopPenaltyZeroMatchesPlainModel(t *testing.T) {
	ring, err := topology.New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []*job.Job {
		j := mkJob(1, 0, 1, 3000, 1000, memtrace.Constant(3000))
		j.Profile = streamProfile()
		j.LimitSec = 1e9
		return []*job.Job{j}
	}
	plain := runSim(t, baseConfig(8, 1000, policy.Static), mk())
	cfg := baseConfig(8, 1000, policy.Static)
	cfg.Topology = &ring // topology present, penalty zero
	withTopo := runSim(t, cfg, mk())
	if math.Abs(plain.Records[0].Finish-withTopo.Records[0].Finish) > 1e-9 {
		t.Fatalf("zero hop penalty changed results: %g vs %g",
			plain.Records[0].Finish, withTopo.Records[0].Finish)
	}
}

func TestStretchMetrics(t *testing.T) {
	// A fully local job has stretch exactly 1.
	local := mkJob(1, 0, 1, 500, 1000, memtrace.Constant(500))
	res := runSim(t, baseConfig(2, 1000, policy.Static), []*job.Job{local})
	if s := res.Records[0].Stretch(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("local stretch = %g, want 1", s)
	}
	if m := res.MeanStretch(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("mean stretch = %g, want 1", m)
	}
	// A remote job under contention stretches beyond 1.
	remote := mkJob(2, 0, 1, 1500, 1000, memtrace.Constant(1500))
	remote.Profile = streamProfile()
	remote.LimitSec = 1e9
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.PerNodeRemoteBW = 1
	res2 := runSim(t, cfg, []*job.Job{remote})
	if s := res2.Records[0].Stretch(); s <= 1 {
		t.Fatalf("remote stretch = %g, want > 1", s)
	}
	// Pending jobs report -1 and are excluded from the mean.
	cfg3 := baseConfig(1, 1000, policy.Static)
	cfg3.Horizon = 10
	res3 := runSim(t, cfg3, []*job.Job{mkJob(3, 0, 1, 100, 1000, memtrace.Constant(100))})
	if res3.Records[0].Stretch() != -1 {
		t.Fatal("pending job must have stretch -1")
	}
	if res3.MeanStretch() != 0 {
		t.Fatal("mean stretch over no completions must be 0")
	}
}

func TestAttemptHistory(t *testing.T) {
	// One clean completion: a single completed attempt, no wasted work.
	j := mkJob(1, 0, 1, 500, 1000, memtrace.Constant(100))
	res := runSim(t, baseConfig(2, 1000, policy.Dynamic), []*job.Job{j})
	rec := res.Records[0]
	if len(rec.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1", len(rec.Attempts))
	}
	a := rec.Attempts[0]
	if a.How != AttemptCompleted || a.End != rec.Finish || a.Start != rec.FirstStart {
		t.Fatalf("attempt = %+v, record = %+v", a, rec)
	}
	if rec.WastedWork() != 0 {
		t.Fatalf("wasted work = %g, want 0", rec.WastedWork())
	}
}

func TestAttemptHistoryOOMRestarts(t *testing.T) {
	usage := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: 400, MB: 5000}})
	j := mkJob(1, 0, 1, 200, 2000, usage)
	cfg := baseConfig(2, 1000, policy.Dynamic)
	cfg.MaxRestarts = 3
	res := runSim(t, cfg, []*job.Job{j})
	rec := res.Records[0]
	if rec.Outcome != Abandoned {
		t.Fatalf("outcome = %v", rec.Outcome)
	}
	if len(rec.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3 (MaxRestarts)", len(rec.Attempts))
	}
	for i, a := range rec.Attempts {
		if a.How != AttemptOOMKilled {
			t.Fatalf("attempt %d ended %v, want oom-killed", i, a.How)
		}
		if a.End < a.Start {
			t.Fatalf("attempt %d: end before start", i)
		}
	}
	if rec.WastedWork() <= 0 {
		t.Fatal("OOM restarts must report wasted work")
	}
}

func TestAttemptHistoryHorizonLeavesOpen(t *testing.T) {
	cfg := baseConfig(1, 1000, policy.Static)
	cfg.Horizon = 50
	j := mkJob(1, 0, 1, 100, 1000, memtrace.Constant(100))
	res := runSim(t, cfg, []*job.Job{j})
	rec := res.Records[0]
	if len(rec.Attempts) != 1 {
		t.Fatalf("attempts = %d", len(rec.Attempts))
	}
	if rec.Attempts[0].End != -1 || rec.Attempts[0].How != AttemptRunning {
		t.Fatalf("open attempt mis-recorded: %+v", rec.Attempts[0])
	}
	if AttemptRunning.String() != "running" || AttemptOOMKilled.String() != "oom-killed" {
		t.Fatal("attempt-end names broken")
	}
}

func TestConservativeBackfillNeverDelaysEarlierJobs(t *testing.T) {
	// Head job B (2 nodes) blocked behind A. Under EASY a long 1-node
	// job D may run if it ends before B's shadow; under conservative
	// backfill D additionally must not delay *any* earlier queued job.
	mk := func(id int, submit float64, nodes int, runtime, limit float64) *job.Job {
		j := mkJob(id, submit, nodes, 100, runtime, memtrace.Constant(100))
		j.LimitSec = limit
		return j
	}
	jobs := func() []*job.Job {
		return []*job.Job{
			mk(1, 0, 1, 900, 1000),
			mk(2, 10, 2, 100, 200), // head
			mk(3, 20, 1, 40, 50),   // short
		}
	}
	cfg := baseConfig(2, 1000, policy.Static)
	cfg.Backfill = ConservativeBackfill
	res := runSim(t, cfg, jobs())
	if res.Completed != 3 {
		t.Fatalf("completed = %d", res.Completed)
	}
	starts := map[int]float64{}
	for _, r := range res.Records {
		starts[r.Job.ID] = r.FirstStart
	}
	// The short job still backfills (it cannot delay the head's
	// reservation at t≈1000).
	if starts[3] >= starts[2] {
		t.Fatalf("conservative backfill lost the safe backfill: start3=%g start2=%g",
			starts[3], starts[2])
	}
}

func TestConservativeVsEasyThroughputComparable(t *testing.T) {
	// On a generic workload conservative backfill completes everything
	// EASY does (it is more cautious, not broken).
	var jobs []*job.Job
	for i := 1; i <= 30; i++ {
		j := mkJob(i, float64(i)*50, 1+i%3, 400, 300+float64(i%5)*200, memtrace.Constant(300))
		j.LimitSec = j.BaseRuntime * 2
		jobs = append(jobs, j)
	}
	easy := runSim(t, baseConfig(6, 1000, policy.Static), jobs)
	cfgC := baseConfig(6, 1000, policy.Static)
	cfgC.Backfill = ConservativeBackfill
	cons := runSim(t, cfgC, jobs)
	if easy.Completed != 30 || cons.Completed != 30 {
		t.Fatalf("completed: easy=%d cons=%d", easy.Completed, cons.Completed)
	}
	// Conservative cannot finish the whole batch dramatically later.
	if cons.Makespan > easy.Makespan*1.5+600 {
		t.Fatalf("conservative makespan %g far beyond easy %g", cons.Makespan, easy.Makespan)
	}
}

func TestBackfillModeStrings(t *testing.T) {
	if EASYBackfill.String() != "easy" || ConservativeBackfill.String() != "conservative" || NoBackfill.String() != "none" {
		t.Fatal("backfill mode names broken")
	}
}

func TestMaxEventsBackstop(t *testing.T) {
	cfg := baseConfig(2, 1000, policy.Dynamic)
	cfg.MaxEvents = 3 // far too few for a real run
	j := mkJob(1, 0, 1, 500, 10000, memtrace.Constant(100))
	s, err := New(cfg, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("exhausted event budget not reported")
	}
}

func TestEnumStrings(t *testing.T) {
	if Pending.String() != "pending" || Completed.String() != "completed" ||
		TimedOut.String() != "timed-out" || Abandoned.String() != "abandoned" {
		t.Fatal("outcome names broken")
	}
	if FailRestart.String() != "fail/restart" || CheckpointRestart.String() != "checkpoint/restart" {
		t.Fatal("OOM mode names broken")
	}
	if MostFree.String() != "most-free" || NearestFirst.String() != "nearest-first" {
		t.Fatal("lender policy names broken")
	}
}
