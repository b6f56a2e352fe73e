package core

import (
	"fmt"
	"math/rand"
	"slices"

	"dismem/internal/policy"
	"dismem/internal/sim"
	"dismem/internal/telemetry"
)

// This file implements copy-on-write simulator forking: Fork snapshots a
// started, paused run into an independent Simulator that can be driven to a
// different future concurrently with the base. The expensive state is not
// copied — the cluster ledger forks in O(shards) via its CoW layer, the
// immutable inputs (jobs, domain bandwidths and capacities) are shared —
// and everything event-bearing (engine heap, running set, queue, caches) is
// deep-copied in O(live state), which is O(Δ) relative to the work already
// simulated, beside one flat copy of the job table. A fork that re-runs the
// base's own configuration is byte-identical to a fresh run: same Results,
// same telemetry stream.

// BranchStats describes what a forked simulator inherited for free: the
// number of events the shared prefix had already fired (work a branch does
// not repeat) and the cluster CoW traffic the branch has caused so far.
type BranchStats struct {
	SharedEvents uint64 // events fired before the fork point
	NodeCopies   int64  // CoW node-slice materialisations in this branch
	ShardThaws   int64  // CoW shard index thaws in this branch
}

// BranchStats reports the fork provenance of this simulator. For a
// simulator built by New, SharedEvents is zero.
func (s *Simulator) BranchStats() BranchStats {
	nodes, thaws := s.cl.CowStats()
	return BranchStats{SharedEvents: s.forkEvents, NodeCopies: nodes, ShardThaws: thaws}
}

// Telemetry returns the simulator's recorder (nil when telemetry is off),
// so a branching layer can fork the base's stream for each branch and
// report fork economics on it.
func (s *Simulator) Telemetry() *telemetry.Recorder { return s.tel }

// Fork returns an independent copy of a started, un-finished simulator,
// paused at the same event-queue state. The fork and the base may then run
// concurrently: the cluster ledger is shared copy-on-write (each side
// materialises only the shards it writes), the immutable inputs are shared
// outright, and all mutable per-run state is private to each side.
//
// tel becomes the fork's telemetry recorder (nil disables telemetry in the
// branch). For a byte-identical no-op branch, pass a recorder forked from
// the base's via telemetry.Recorder.Fork with the same sink semantics; a
// recorder with a different sampling interval changes the branch's sampler
// cadence (never its Result). The fork drops the base's Observer and
// Interrupt hooks — they are owned by the base's caller, and invoking them
// from several branches would interleave.
//
// Fork must be called between events — after Start, typically after a
// StepUntil, and before Finish. It is not safe to fork while the base is
// running; pause first.
//
// Fork reads every per-domain contention cache wholesale to clone it; a
// whole-set copy cannot leak one domain's pressure into another, which is
// the property the domainmerge directive certifies.
//
//dmp:domainmerge
func (s *Simulator) Fork(tel *telemetry.Recorder) (*Simulator, error) {
	if !s.started {
		return nil, fmt.Errorf("core: Fork before Start")
	}
	if s.finished {
		return nil, fmt.Errorf("core: Fork after Finish")
	}

	f := &Simulator{}
	*f = *s // scalars; every reference-typed field is re-pointed below

	// Hooks stay with the base's caller (see doc comment); telemetry is the
	// branch's own recorder.
	f.cfg.Observer = nil
	f.cfg.Interrupt = nil
	f.cfg.Telemetry = tel
	f.tel = tel
	f.forkEvents = s.eng.Fired()

	// Shared immutable state: domBW, domCapMB — the struct copy above
	// already aliases them, which is correct because no code path writes
	// them after New.

	// The ledger forks copy-on-write in O(shards).
	f.cl = s.cl.Fork()

	// Policy and adjuster hold only scratch buffers (no decision state),
	// so fresh instances behave identically and must not be shared across
	// concurrently running branches. Mirrors New.
	f.pol = policy.New(f.cfg.Policy, f.cfg.lenders())
	f.adj = policy.NewAdjuster(f.cfg.lenders())
	f.adj.Tel = tel

	// Replay the RNG to the base's draw position so the branch's future
	// jitter sequence continues exactly where a fresh run's would.
	f.rng = rand.New(rand.NewSource(f.cfg.Seed))
	for i := 0; i < s.rngDraws; i++ {
		f.rng.Float64()
	}

	// Job table: one copy, so a branch's outcomes never write into the
	// base's records. The Job pointers stay shared (immutable).
	f.table = slices.Clone(s.table)
	for i := range f.table {
		// slices.Clone keeps nil-ness: Results are DeepEqual-compared.
		f.table[i].rec.Attempts = slices.Clone(f.table[i].rec.Attempts)
	}

	// Running jobs: full clones pointing into the fork's table, with
	// handles re-attached after the engine clone below.
	f.runList = make([]*runningJob, len(s.runList))
	for k, rj := range s.runList {
		n := cloneRunning(rj, &f.table[rj.idx].rec)
		if rj.onUpdate != nil {
			n.onUpdate = f.updateAction(rj.idx)
		}
		f.table[rj.idx].run = n
		f.runList[k] = n
	}
	f.ends = make(endOrder, len(s.ends))
	for k, rj := range s.ends {
		f.ends[k] = f.table[rj.idx].run
	}
	f.queue = s.queue.Clone()

	if f.res != nil {
		nres := &Result{}
		*nres = *s.res
		nres.Records = append([]JobRecord(nil), s.res.Records...)
		f.res = nres
	}

	// Contention state: rho copies, the per-domain remote-holder lists
	// rebuild with the cloned runningJobs in the same order.
	f.domRho = append([]float64(nil), s.domRho...)
	f.domRemote = make([][]*runningJob, len(s.domRemote))
	for d, list := range s.domRemote {
		if len(list) == 0 {
			continue
		}
		nl := make([]*runningJob, len(list))
		for i, rj := range list {
			nl[i] = f.table[rj.idx].run
		}
		f.domRemote[d] = nl
	}

	// Scratch state is never shared: the fork rebuilds what it needs
	// lazily, exactly as a fresh simulator would.
	f.prof = nil
	f.examined = nil

	// Engine: exact heap copy with every pending action rebound to the
	// fork. The handle map re-attaches the running jobs' retained handles.
	eng, handles := s.eng.Clone(func(tag uint64) sim.Action {
		switch tagKind(tag) {
		case tagSubmit:
			i := tagIndex(tag)
			return func(*sim.Engine) { f.onSubmit(i) }
		case tagTick:
			return func(*sim.Engine) { f.onTick() }
		case tagFinish:
			i := tagIndex(tag)
			return func(*sim.Engine) { f.onFinish(i) }
		case tagLimit:
			i := tagIndex(tag)
			return func(*sim.Engine) { f.onTimeLimit(i) }
		case tagUpdate:
			return f.table[tagIndex(tag)].run.onUpdate
		case tagSample:
			if iv := tel.SampleInterval(); iv > 0 {
				return sim.Periodic(iv, tag, func(*sim.Engine) { f.sample() })
			}
			// Branch telemetry is off: the inherited tick fires once as a
			// no-op and does not reschedule, exactly as if sampling had
			// never been configured from here on.
			return func(*sim.Engine) {}
		}
		return nil // untagged pending event: impossible by construction, Clone panics
	})
	f.eng = eng
	for _, rj := range f.runList {
		rj.finishEv = handles[evTag(tagFinish, rj.idx)]
		rj.limitEv = handles[evTag(tagLimit, rj.idx)]
		rj.updateEv = handles[evTag(tagUpdate, rj.idx)]
	}
	return f, nil
}

// cloneRunning deep-copies one running job's live state. Event handles and
// the update action are left zero; Fork re-attaches the handles from the
// engine clone's handle map and binds the action to the fork. The
// Job pointer and the usage trace behind the cursor are shared (immutable).
func cloneRunning(rj *runningJob, rec *JobRecord) *runningJob {
	n := &runningJob{}
	*n = *rj
	n.rec = rec
	n.alloc = rj.alloc.Clone()
	n.finishEv, n.limitEv, n.updateEv = sim.Handle{}, sim.Handle{}, sim.Handle{}
	n.onUpdate = nil
	n.nodeTraffic = append([]float64(nil), rj.nodeTraffic...)
	n.nodeDom = append([]int32(nil), rj.nodeDom...)
	n.homeDoms = append([]int32(nil), rj.homeDoms...)
	n.domSet = append([]int32(nil), rj.domSet...)
	n.domFrac = append([]float64(nil), rj.domFrac...)
	return n
}
