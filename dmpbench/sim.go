package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"dismem/internal/core"
	"dismem/internal/job"
	"dismem/internal/telemetry"
)

// countingSink counts telemetry events by kind.
type countingSink struct{ n [telemetry.KindCount]uint64 }

func (c *countingSink) Event(e *telemetry.Event) error {
	if e.Kind < telemetry.KindCount {
		c.n[e.Kind]++
	}
	return nil
}
func (c *countingSink) Sample(*telemetry.Sample) error { return nil }
func (c *countingSink) Close() error                   { return nil }

// workCounts are the exact per-run work counters of one traced simulation.
type workCounts struct {
	tally core.Tally
	sink  countingSink
}

// simRun is one simulated scenario: its result, its host time split into
// construction and event loop, and (traced) its work counters.
type simRun struct {
	sim         *core.Simulator
	res         *core.Result
	newD, loopD time.Duration
	counts      *workCounts
}

// simulate builds a simulator and runs it to completion. When traced, a
// core.Tally observer and a counting telemetry sink ride along; neither
// changes the result.
func simulate(cfg core.Config, jobs []*job.Job, traced bool) (simRun, error) {
	var out simRun
	if traced {
		out.counts = &workCounts{}
		cfg.Observer = &out.counts.tally
		cfg.Telemetry = telemetry.New(telemetry.Options{Sink: &out.counts.sink})
	}
	t0 := time.Now()
	s, err := core.New(cfg, jobs)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	s.Start()
	res, err := s.Finish()
	t2 := time.Now()
	if err != nil {
		return out, err
	}
	if err := cfg.Telemetry.Close(); err != nil {
		return out, err
	}
	out.sim, out.res, out.newD, out.loopD = s, res, t1.Sub(t0), t2.Sub(t1)
	return out, nil
}

// resultDigest hashes every field of a result bit-exactly (NaN-safe, unlike
// reflect.DeepEqual), so repetitions can be compared with the first.
func resultDigest(res *core.Result) [32]byte {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	f := func(v float64) { u(math.Float64bits(v)) }
	i := func(v int64) { u(uint64(v)) }
	h.Write([]byte(res.Policy))
	if res.Infeasible {
		u(1)
	}
	i(int64(res.InfeasibleJob))
	f(res.Makespan)
	for _, v := range []int{res.Completed, res.TimedOut, res.Abandoned, res.OOMKills, res.PeakQueue, res.Nodes} {
		i(int64(v))
	}
	f(res.AllocMBSeconds)
	f(res.UsedMBSeconds)
	f(res.BusyNodeSeconds)
	i(res.TotalCapacityMB)
	for k := range res.Records {
		rec := &res.Records[k]
		i(int64(rec.Job.ID))
		i(int64(rec.Outcome))
		f(rec.Submit)
		f(rec.FirstStart)
		f(rec.LastStart)
		f(rec.Finish)
		i(int64(rec.Restarts))
		for _, a := range rec.Attempts {
			f(a.Start)
			f(a.End)
			i(int64(a.How))
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// checkSim verifies one simulated scenario: every job reaches exactly one
// terminal outcome, the traced counters agree with that, and the result is
// bit-identical to the run's first repetition (*first is set on the first
// call). It returns false after recording the reasons.
func (r *run) checkSim(op int, sr simRun, jobs []*job.Job, first *[32]byte, have *bool) bool {
	res := sr.res
	ok := true
	if res.Infeasible {
		return r.fail("op %d: scenario infeasible (job %d)", op, res.InfeasibleJob)
	}
	if len(res.Records) != len(jobs) {
		ok = r.fail("op %d: %d records for %d jobs", op, len(res.Records), len(jobs))
	}
	seen := make(map[int]bool, len(jobs))
	terminal := 0
	for k := range res.Records {
		rec := &res.Records[k]
		if seen[rec.Job.ID] {
			ok = r.fail("op %d: job %d recorded twice", op, rec.Job.ID)
		}
		seen[rec.Job.ID] = true
		switch rec.Outcome {
		case core.Completed, core.TimedOut, core.Abandoned:
			terminal++
			if rec.Finish < 0 || rec.Finish < rec.LastStart {
				ok = r.fail("op %d: job %d ended at %g after starting at %g", op, rec.Job.ID, rec.Finish, rec.LastStart)
			}
		default:
			ok = r.fail("op %d: job %d has no terminal outcome (%s)", op, rec.Job.ID, rec.Outcome)
		}
	}
	if sum := res.Completed + res.TimedOut + res.Abandoned; sum != len(jobs) || terminal != len(jobs) {
		ok = r.fail("op %d: %d terminal outcomes counted, %d recorded, %d jobs", op, sum, terminal, len(jobs))
	}
	if c := sr.counts; c != nil {
		if c.tally.Finished != len(jobs) {
			ok = r.fail("op %d: tally saw %d terminal events for %d jobs", op, c.tally.Finished, len(jobs))
		}
		if n := c.sink.n[telemetry.KindJobEnd]; n != uint64(len(jobs)) {
			ok = r.fail("op %d: telemetry saw %d job_end events for %d jobs", op, n, len(jobs))
		}
		if c.tally.OOMKills != res.OOMKills {
			ok = r.fail("op %d: tally counted %d OOM kills, result %d", op, c.tally.OOMKills, res.OOMKills)
		}
	}
	d := resultDigest(res)
	if !*have {
		*first, *have = d, true
		r.digest = hex.EncodeToString(d[:])
	} else if d != *first {
		ok = r.fail("op %d: result differs from the run's first repetition", op)
	}
	return ok
}

// simStats collects the timed operations of a simulation workload.
type simStats struct {
	run, newMS, loopMS []float64 // untraced operations
	tracedRun          []float64
	counts             *workCounts // last traced operation
	last               simRun      // kept for live_mb
}

// observe files one operation's timings and counters. Each traced
// operation must repeat the previous traced one's counters exactly.
func (st *simStats) observe(r *run, op int, sr simRun) bool {
	total := ms(sr.newD + sr.loopD)
	st.last = sr
	if sr.counts == nil {
		st.run = append(st.run, total)
		st.newMS = append(st.newMS, ms(sr.newD))
		st.loopMS = append(st.loopMS, ms(sr.loopD))
		return true
	}
	st.tracedRun = append(st.tracedRun, total)
	if st.counts != nil && *st.counts != *sr.counts {
		st.counts = sr.counts
		return r.fail("op %d: work counters differ from the previous traced repetition", op)
	}
	st.counts = sr.counts
	return true
}

// report sets the simulation workloads' metrics: end to end when untraced,
// per layer when traced.
func (st *simStats) report(r *run, n int, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "run_ms samples: %.0f\n", st.run)
	if !r.trace {
		r.e2e.addWindow(st.run, n, elapsed)
		return
	}
	r.set("core.new_ms", median(st.newMS), "ms")
	r.set("core.loop_ms", median(st.loopMS), "ms")
	r.set("trace.overhead_ms", median(st.tracedRun)-median(st.run), "ms")
	setTail(r, st.run)
	c := st.counts
	if c == nil {
		c = &workCounts{}
	}
	k := func(kind telemetry.Kind) float64 { return float64(c.sink.n[kind]) }
	r.set("core.jobs_finished", float64(c.tally.Finished), "count")
	r.set("core.oom_kills", float64(c.tally.OOMKills), "count")
	r.set("policy.resizes", float64(c.tally.Resizes), "count")
	r.set("policy.lease_grants", k(telemetry.KindLeaseGrant), "count")
	r.set("policy.lease_adjusts", k(telemetry.KindLeaseAdjust), "count")
	r.set("policy.lease_revokes", k(telemetry.KindLeaseRevoke), "count")
	r.set("sched.backfill_holes", k(telemetry.KindBackfillHole), "count")
	r.set("sched.backfill_places", k(telemetry.KindBackfillPlace), "count")
	ratio := 0.0
	if h := k(telemetry.KindBackfillHole); h > 0 {
		ratio = 100 * k(telemetry.KindBackfillPlace) / h
	}
	r.set("sched.backfill_place_ratio", ratio, "%")
	per := 0.0
	if c.tally.Resizes > 0 {
		per = k(telemetry.KindLeaseAdjust) / float64(c.tally.Resizes)
	}
	r.set("policy.adjusts_per_resize", per, "ratio")
}

// setTail reports the sample count of the untraced operations and the
// highest percentile with at least ten samples beyond it.
func setTail(r *run, xs []float64) {
	pct, v := tail(xs)
	r.set("run.samples", float64(len(xs)), "count")
	r.set("run.tail_pct", pct, "%")
	r.set("run.tail_ms", v, "ms")
}

// simLoop is the timed window shared by the simulation workloads: it runs
// the scenario repeatedly, alternating untraced and traced operations in a
// traced run, profiles the traced ones, and checks every result.
func (r *run) simLoop(cfg core.Config, jobs []*job.Job, st *simStats) (int, time.Duration, error) {
	prof := newProfiler()
	var first [32]byte
	var have bool
	traced := 0
	n, elapsed, err := r.loop(func(i int) error {
		tr := r.trace && i%2 == 1
		if tr {
			if err := prof.start(); err != nil {
				return err
			}
		}
		sr, err := simulate(cfg, jobs, tr)
		if tr {
			if err := prof.stop(); err != nil {
				return err
			}
			traced++
		}
		if err != nil {
			r.op(r.fail("op %d: %v", i, err))
			return nil
		}
		r.maybeTamper(i, sr.res)
		ok := st.observe(r, i, sr)
		r.op(r.checkSim(i, sr, jobs, &first, &have) && ok)
		return nil
	})
	if r.trace {
		prof.report(r, traced)
	}
	return n, elapsed, err
}

// usagePoints counts the usage-trace points the simulated jobs carry.
func usagePoints(jobs []*job.Job) int {
	n := 0
	for _, j := range jobs {
		n += j.Usage.Len()
	}
	return n
}
