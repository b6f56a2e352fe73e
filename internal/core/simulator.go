package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dismem/internal/cluster"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/sched"
	"dismem/internal/sim"
	"dismem/internal/slowdown"
	"dismem/internal/telemetry"
)

// Simulator runs one scenario: a job trace against a cluster under one
// allocation policy. Create it with New and call Run once.
type Simulator struct {
	cfg Config
	cl  *cluster.Cluster
	pol policy.Policy
	adj *policy.Adjuster
	eng *sim.Engine
	rng *rand.Rand
	tel *telemetry.Recorder // nil when telemetry is disabled

	// table holds every job's state in trace order; a job's table index is
	// its key everywhere inside the simulator (event tags, queue entries,
	// dependency links), and only telemetry and the Observer see its ID.
	// The table never grows after New, so pointers into it stay valid.
	table []jobEntry
	queue sched.Queue
	// runList is the running set: the live attempts, ascending job ID, so
	// refreshes visit them in the same order every run. ends holds the same
	// attempts in release order, the sequence the backfill passes walk.
	runList []*runningJob
	ends    endOrder

	res           *Result
	lastAcc       float64
	curAllocMB    int64
	curBusyNodes  int
	tickScheduled bool
	tick          sim.Action // the scheduling pass, bound once per simulator

	// Contention state. Pressure is scoped to domains: the global model is
	// the one-domain case (nDom 1, every node in domain 0, whatever the
	// ledger's shard count), and PressureDomains identifies domains with
	// ledger shards, so domain d owns shard d's contiguous node-ID range and
	// every per-domain resource summary is the shard's O(1) summary.
	nDom      int
	domBW     []float64       // per-domain aggregate remote bandwidth (GB/s, immutable)
	domRho    []float64       // per-domain contention pressure
	domRemote [][]*runningJob // per-domain resident jobs holding remote memory, ascending job ID
	domCapMB  []int64         // per-domain memory capacity (immutable)
	// stale is set whenever the running set changes or a running job's
	// remote share can have moved, and cleared by the refresh that rebuilds
	// the touched domains. A resize of nodes that hold no remote memory
	// before or after leaves it clear: such a node's remote share is 0
	// whatever its size. While it is clear, every rho and slowdown is a
	// pure function of state that has not moved, and the refresh returns at
	// once.
	stale        bool
	refreshEpoch uint64 // refreshAfter's job dedup stamp across touched domains

	prof *sched.Profile // pooled conservative-backfill profile, reused across passes
	// examined is the scratch behind examinedQueue, reused across passes.
	examined []sched.Entry

	// Lifecycle state for the Start/StepUntil/Finish decomposition of Run
	// and for Fork (see fork.go). rngDraws counts Float64 draws taken from
	// rng so a fork can replay the stream to the same position; forkEvents
	// is the engine's fired count at the moment this simulator was forked
	// (zero for a simulator built by New) — the shared-prefix length a
	// branch did not have to re-simulate.
	started    bool
	finished   bool
	rngDraws   int
	forkEvents uint64
}

// jobEntry is one job's row in the simulator's job table: its lifecycle
// from submission to its terminal outcome, across every attempt.
type jobEntry struct {
	j      *job.Job
	rec    JobRecord
	run    *runningJob // the live attempt; nil while not running
	banked float64     // progress the next attempt resumes from (C/R, repack)
	prio   int         // priority boost after repeated OOM failures
	dep    int         // table index of the predecessor; -1 for none
}

// runningJob is the live state of one dispatched job.
type runningJob struct {
	j        *job.Job
	rec      *JobRecord // the job's table record
	idx      int        // the job's table index
	alloc    *cluster.JobAllocation
	start    float64         // dispatch time of this attempt
	lastT    float64         // last progress-banking time
	progress float64         // completed base-seconds of work at lastT
	slow     float64         // slowdown factor (≥1) in force since lastT
	period   float64         // this job's jittered memory-update period
	use      memtrace.Cursor // usage-trace reader at this attempt's progress
	gone     bool            // torn down: no longer in the running set
	end      float64         // conservative release time: start + the job's limit

	// The attempt's compute nodes by capacity class (above the cluster's
	// NormalMB or not), fixed at dispatch: the node counts of its release.
	normal, large int

	// target is the per-node allocation every compute node holds after the
	// last memory update, or -1 before the first. A non-OOM update leaves
	// every node at exactly its target (growth is all-or-OOM, a shrink
	// always completes), an OOM ends the attempt, and nothing else edits a
	// running allocation, so an update whose target equals it has no node
	// to resize.
	target int64

	finishEv sim.Handle
	limitEv  sim.Handle
	updateEv sim.Handle
	onUpdate sim.Action // the memory-update handler, bound once per attempt

	// Contention cache, valid while dirty is false. A job's per-node remote
	// fractions depend only on its own allocation, which changes only at
	// dispatch and in its own memory-update handler — never when other jobs
	// borrow from or return memory to the same lenders — so the cache is
	// invalidated exactly there and the refresh does no per-node work for
	// untouched jobs. A resize invalidates it only when some node's remote
	// share can have moved: its remote memory changed, or it holds remote
	// memory and its total changed. A node with no remote memory before and
	// after keeps traffic 0 and fraction 0 whatever its size.
	nodeTraffic []float64 // per alloc.PerNode entry: slowdown.NodeTraffic value
	maxFrac     float64   // max distance-weighted remote fraction over nodes
	dirty       bool      // a node's remote share can have moved since recontend last ran
	remote      bool      // holds remote memory: listed in domRemote of every home domain

	// Pressure-domain footprint, frozen at dispatch by domainize: the home
	// domain of every compute node, the sorted unique home-domain list, and
	// the domain set — home domains plus the domains of every placement
	// lease's lender — that confines all later growth in domains mode.
	// domFrac caches, per home domain, the maximum weighted remote fraction
	// of the job's nodes resident there; epoch is the refresh's dedup stamp
	// for jobs spanning several touched domains.
	nodeDom  []int32
	homeDoms []int32
	domSet   []int32
	domFrac  []float64
	epoch    uint64
}

// New validates the configuration and trace and builds a simulator.
func New(cfg Config, jobs []*job.Job) (*Simulator, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	table := make([]jobEntry, len(jobs))
	index := make(map[int]int, len(jobs))
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if _, dup := index[j.ID]; dup {
			return nil, fmt.Errorf("core: duplicate job ID %d", j.ID)
		}
		index[j.ID] = i
		table[i] = jobEntry{
			j:   j,
			rec: JobRecord{Job: j, Submit: j.SubmitTime, FirstStart: -1, LastStart: -1, Finish: -1},
		}
	}
	if err := checkDependencies(table, index); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:   cfg,
		table: table,
		cl:    cluster.NewMixed(cfg.Cluster),
		pol:   policy.New(cfg.Policy, cfg.lenders()),
		adj:   policy.NewAdjuster(cfg.lenders()),
		eng:   sim.New(),
		tel:   cfg.Telemetry,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	s.adj.Tel = cfg.Telemetry
	s.tick = s.tickAction()
	// The global model is one domain over the whole fabric; domains mode
	// has one per ledger shard (Normalize forced Cluster.Shards == Domains).
	// A domain's bandwidth budget scales with the nodes it contains, the
	// fabric's per-node provisioning.
	s.nDom = 1
	if cfg.Pressure == PressureDomains {
		s.nDom = s.cl.ShardCount()
	}
	s.domBW = make([]float64, s.nDom)
	s.domRho = make([]float64, s.nDom)
	s.domRemote = make([][]*runningJob, s.nDom)
	s.domCapMB = make([]int64, s.nDom)
	nodes := make([]int, s.nDom)
	for _, n := range s.cl.Nodes() {
		d := s.domainOf(n.ID)
		nodes[d]++
		s.domCapMB[d] += n.CapacityMB
	}
	for d, n := range nodes {
		s.domBW[d] = cfg.PerNodeRemoteBW * float64(n)
	}
	return s, nil
}

// Run executes the scenario and returns its Result. It must be called at
// most once, and not combined with an explicit Start.
func (s *Simulator) Run() (*Result, error) {
	s.Start()
	return s.Finish()
}

// Start schedules the scenario without firing any events: the result shell,
// the feasibility pre-check, every job's submit event and the telemetry
// sampler. After Start the caller may advance the run piecewise with
// StepUntil, fork it, and complete it with Finish — Run is exactly Start
// followed by Finish. StepUntil and Finish drive the one event loop, which
// honours Horizon, MaxEvents and Interrupt whichever calls it, so the
// decomposition fires the same events in the same order and results are
// byte-identical however the run is driven. Start must be called exactly
// once.
func (s *Simulator) Start() {
	if s.started {
		panic("core: Simulator.Start called twice")
	}
	s.started = true
	s.res = &Result{
		Policy:          s.cfg.Policy.String(),
		TotalCapacityMB: s.cl.TotalCapacityMB(),
		Nodes:           s.cl.Len(),
	}

	// Feasibility pre-check: a scenario containing a job that can never
	// run is reported as infeasible (the paper's missing bars) rather
	// than deadlocking the queue. Nothing is scheduled; StepUntil and
	// Finish both honour the flag.
	for i := range s.table {
		if j := s.table[i].j; !s.pol.CanEverRun(s.cl, j) {
			s.res.Infeasible = true
			s.res.InfeasibleJob = j.ID
			return
		}
	}

	for i := range s.table {
		s.eng.Schedule(s.table[i].j.SubmitTime, evTag(tagSubmit, i), func(*sim.Engine) { s.onSubmit(i) })
	}
	if iv := s.tel.SampleInterval(); iv > 0 {
		// The sampler reads state and emits; it mutates nothing, so results
		// are identical with it on or off. The periodic tick stops
		// rescheduling once it is the only queued event, so it cannot keep
		// the run alive on its own. The tick carries tagSample so Fork can
		// rebind it.
		s.eng.Every(0, iv, evTag(tagSample, 0), func(*sim.Engine) { s.sample() })
	}
}

// StepUntil fires every event due at or before t (and Horizon) and returns
// with the clock at the last fired event. It is the pause point for
// forking: after StepUntil the engine is between events, which is the only
// state a Fork may be taken in. An exhausted event budget or a failing
// Interrupt stops it with an error, as it stops Finish.
func (s *Simulator) StepUntil(t float64) error {
	if !s.started {
		panic("core: StepUntil before Start")
	}
	if s.res.Infeasible || s.finished {
		return nil
	}
	return s.advance(t)
}

// Finish drives the run to completion and returns the Result. It must be
// called exactly once, after Start.
func (s *Simulator) Finish() (*Result, error) {
	if !s.started {
		panic("core: Finish before Start")
	}
	if s.finished {
		panic("core: Finish called twice")
	}
	s.finished = true
	if s.res.Infeasible {
		return s.res, nil
	}
	if err := s.advance(math.Inf(1)); err != nil {
		return nil, err
	}
	// The clock may sit on a trailing sampler tick; the makespan is the time
	// of the last *simulation* event, which every handler recorded in
	// lastAcc. The sampler deliberately never accrues, so it can move
	// neither this nor the utilisation integrals — results are identical
	// with telemetry on or off.
	s.res.Makespan = s.lastAcc
	s.res.PeakQueue = s.queue.PeakLen()
	// Jobs still running when a horizon cut the run off have progressed
	// since their last slowdown change; bank them up to the makespan so the
	// usage integral covers the whole run.
	for _, rj := range s.runList {
		s.bank(rj, s.lastAcc)
	}

	for i := range s.table {
		s.res.Records = append(s.res.Records, s.table[i].rec)
	}
	if s.cfg.CheckInvariants {
		if err := s.checkInvariants(); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// checkInvariants verifies the ledger and, for every running job, that the
// allocation's cached totals equal a re-sum of its records.
func (s *Simulator) checkInvariants() error {
	if err := s.cl.CheckInvariants(); err != nil { //dmplint:ignore hotpath-reach invariant sweeps run only when cfg.CheckInvariants is set — a debug mode that trades speed for ledger auditing
		return err
	}
	for _, rj := range s.runList {
		if err := rj.alloc.CheckTotals(); err != nil { //dmplint:ignore hotpath-reach invariant sweeps run only when cfg.CheckInvariants is set — a debug mode that trades speed for ledger auditing
			return err
		}
	}
	return nil
}

// advance is the event loop behind StepUntil and Finish: it fires, in
// order, every event due at or before t and Horizon (events exactly at the
// limit fire), checks the event budget before each event, and polls
// Interrupt every interruptStride events, first before any fires.
func (s *Simulator) advance(t float64) error {
	if h := s.cfg.Horizon; h > 0 && h < t {
		t = h
	}
	for n := uint64(0); ; n++ {
		if s.cfg.MaxEvents > 0 && s.eng.Fired() >= s.cfg.MaxEvents {
			return fmt.Errorf("core: event budget (%d) exhausted at t=%.0f — runaway simulation",
				s.cfg.MaxEvents, s.eng.Now())
		}
		if s.cfg.Interrupt != nil && n%interruptStride == 0 {
			if err := s.cfg.Interrupt(); err != nil {
				return fmt.Errorf("core: run interrupted at t=%.0f: %w", s.eng.Now(), err)
			}
		}
		if !s.eng.Step(t) {
			return nil
		}
	}
}

// interruptStride is how many events the event loop fires between
// Interrupt polls: frequent enough that a cancelled request aborts within
// microseconds of simulated work, rare enough that the poll never shows up
// in the event hot path.
const interruptStride = 1024

// randFloat draws from the simulator's deterministic RNG, counting the draw
// so Fork can replay an equal-seeded stream to the same position and a
// branch's jitter sequence continues exactly where the base's would have.
func (s *Simulator) randFloat() float64 {
	s.rngDraws++
	return s.rng.Float64()
}

// accrue integrates the utilisation counters up to the current time. Every
// event handler calls it before mutating state; it also advances the
// telemetry clock, so emitters deeper in the stack (policies, the ledger)
// need not thread the simulated time through their signatures.
func (s *Simulator) accrue() {
	now := s.eng.Now()
	dt := now - s.lastAcc
	if dt > 0 {
		s.res.AllocMBSeconds += dt * float64(s.curAllocMB)
		s.res.BusyNodeSeconds += dt * float64(s.curBusyNodes)
	}
	s.lastAcc = now
	s.tel.SetNow(now)
}

// sample records one fixed-interval telemetry snapshot. It reads O(1)
// aggregates only and mutates no simulation state — a run with sampling on
// produces the same Result as one with telemetry off.
func (s *Simulator) sample() {
	s.tel.Sample(s.eng.Now(), s.cl.TotalFreeMB(), s.cl.TotalLentMB(),
		s.queue.Len(), s.cl.BusyNodes(), len(s.runList))
}

// poolCheck feeds the free-pool watermark detector after any change to the
// memory ledger. In domains mode it additionally checks the touched job's
// domain set against each domain's own capacity, so per-rack exhaustion is
// visible even while the system-wide pool looks healthy; rj may be nil when
// no single job scopes the change. With a single domain the per-domain check
// would duplicate the system-wide one event for event, so it is skipped —
// which keeps single-domain runs byte-identical to global mode.
func (s *Simulator) poolCheck(rj *runningJob) {
	if s.tel == nil {
		return
	}
	s.tel.PoolCheck(s.cl.TotalFreeMB(), s.cl.TotalCapacityMB())
	if s.nDom > 1 && rj != nil {
		for _, d := range rj.domSet {
			s.tel.PoolCheckDomain(int(d), s.cl.Shard(int(d)).FreeMB, s.domCapMB[d])
		}
	}
}

// ---------------------------------------------------------------- events

// Event tags classify queue entries without calling into their actions: a
// kind in the top bits and the owning job's table index (zero for global
// events) in the low 32. Fork rebinds every pending event through its tag;
// tagSample marks the telemetry sampler's ticks.
const (
	tagSubmit = iota + 1
	tagTick
	tagFinish
	tagLimit
	tagUpdate
	tagSample
)

// evTag packs an event kind and a job's table index into an engine tag. No
// trace holds 2³² jobs, so the index fits the low half whatever the job IDs.
func evTag(kind, idx int) uint64 { return uint64(kind)<<32 | uint64(idx) }

func tagKind(tag uint64) int { return int(tag >> 32) }

// tagIndex unpacks the table index from an engine tag.
func tagIndex(tag uint64) int { return int(uint32(tag)) }

func (s *Simulator) onSubmit(i int) {
	s.accrue()
	if s.dependencyState(&s.table[i]) == depFailed {
		// The predecessor already failed: the job can never run.
		s.submitted(i, false)
		s.conclude(i, Abandoned)
		return
	}
	s.enqueue(i, false)
	s.ensureTick(true)
}

// ------------------------------------------------------- job lifecycle
//
// Every submission is announced by submitted, every queue entry made by
// enqueue and every terminal outcome recorded by conclude, so the job
// table, the Result counters, the Observer and the telemetry stream see
// each transition in one order wherever it happens.

// submitted announces a submission of the job at table index i to the
// Observer and the telemetry stream; resubmit marks a requeue.
func (s *Simulator) submitted(i int, resubmit bool) {
	j := s.table[i].j
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobSubmitted(s.eng.Now(), j, resubmit)
	}
	s.tel.JobSubmit(j.ID, resubmit)
}

// enqueue queues the job at table index i at its priority and announces it.
// resubmit marks a requeue: an OOM restart or a repack.
func (s *Simulator) enqueue(i int, resubmit bool) {
	s.queue.Push(sched.Entry{Job: i, Enqueue: s.eng.Now(), Priority: s.table[i].prio})
	s.submitted(i, resubmit)
}

// conclude records the terminal outcome of the job at table index i, which
// is neither queued nor running, counts it and announces it. A job that
// ends without completing fails its queued dependents.
func (s *Simulator) conclude(i int, out Outcome) {
	e := &s.table[i]
	e.rec.Outcome = out
	e.rec.Finish = s.eng.Now()
	switch out {
	case Completed:
		s.res.Completed++
	case TimedOut:
		s.res.TimedOut++
	case Abandoned:
		s.res.Abandoned++
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobFinished(s.eng.Now(), e.j, out)
	}
	s.tel.JobEnd(e.j.ID, out.String(), e.rec.Restarts)
	if out != Completed {
		s.cancelDependents(i)
	}
}

// ensureTick guarantees a scheduling pass is queued. immediate requests a
// pass right now (submission/completion); otherwise the regular interval
// applies.
//
//dmp:hotpath
func (s *Simulator) ensureTick(immediate bool) {
	if s.tickScheduled || s.queue.Len() == 0 {
		return
	}
	s.tickScheduled = true
	delay := s.cfg.SchedInterval
	if immediate {
		delay = 0
	}
	s.eng.After(delay, evTag(tagTick, 0), s.tick)
}

// tickAction binds the scheduling pass. New and Fork bind it once, and
// every pass reschedules the same action.
func (s *Simulator) tickAction() sim.Action {
	return func(*sim.Engine) { s.onTick() }
}

// onTick runs one scheduling pass and queues the next while jobs wait.
//
//dmp:hotpath
func (s *Simulator) onTick() {
	s.accrue()
	s.tickScheduled = false
	s.schedulePass()
	s.ensureTick(false)
	if s.cfg.CheckInvariants {
		if err := s.checkInvariants(); err != nil {
			panic(err)
		}
	}
}

// examinedQueue snapshots the first QueueDepth pending entries, in
// scheduling order, into the simulator's scratch. The passes iterate the
// snapshot while they Remove started jobs from the queue; each pass takes
// a fresh one, and none survives the pass that took it.
//
//dmp:hotpath
func (s *Simulator) examinedQueue() []sched.Entry {
	s.examined = s.queue.AppendItems(s.examined[:0], s.cfg.QueueDepth)
	return s.examined
}

// schedulePass runs one main-scheduler FIFO pass followed by one backfill
// pass, both bounded by the configured queue depth. Jobs with unsatisfied
// dependencies are held: they neither start nor block others.
func (s *Simulator) schedulePass() {
	// Main pass: strict FIFO among eligible jobs — stop at the first
	// eligible job that does not fit.
	for {
		progressed := false
		for _, q := range s.examinedQueue() {
			e := &s.table[q.Job]
			if s.dependencyState(e) != depSatisfied {
				continue // held
			}
			ja, placed := s.pol.Place(s.cl, e.j)
			if !placed {
				goto backfill
			}
			s.queue.Remove(q.Job)
			s.start(q.Job, ja) //dmplint:ignore hotpath-reach job start is per-admission, not per-tick; its event-registration closures and telemetry are sanctioned slow-path work
			progressed = true
			break // re-read the queue: priorities may interleave
		}
		if !progressed {
			break
		}
	}
backfill:

	switch s.cfg.Backfill {
	case NoBackfill:
		return
	case ConservativeBackfill:
		s.conservativePass()
	default:
		s.easyPass()
	}
}

// easyPass is the EASY backfill: reserve for the first eligible queued job,
// let later short jobs jump it.
func (s *Simulator) easyPass() {
	head := -1
	for _, q := range s.examinedQueue() {
		if s.dependencyState(&s.table[q.Job]) == depSatisfied {
			head = q.Job
			break
		}
	}
	if head < 0 {
		return
	}
	hj := s.table[head].j
	shadow := s.shadowTimeFor(hj)
	s.tel.BackfillHole(hj.ID, shadow)
	for _, q := range s.examinedQueue() {
		if q.Job == head {
			continue
		}
		e := &s.table[q.Job]
		if s.dependencyState(e) != depSatisfied {
			continue
		}
		if !sched.CanBackfill(s.eng.Now(), e.j.LimitSec, shadow) {
			continue
		}
		if ja, placed := s.pol.Place(s.cl, e.j); placed {
			s.queue.Remove(q.Job)
			s.tel.BackfillPlace(e.j.ID)
			s.start(q.Job, ja) //dmplint:ignore hotpath-reach job start is per-admission, not per-tick; its event-registration closures and telemetry are sanctioned slow-path work
		}
	}
}

// conservativePass gives every examined queued job a reservation on the
// future resource profile: a job starts now only if that does not push any
// earlier job's reservation back.
//
//dmp:hotpath
func (s *Simulator) conservativePass() {
	now := s.eng.Now()
	if s.prof == nil {
		s.prof = &sched.Profile{}
	}
	profile := s.prof
	profile.Reset(now, s.currentResources(), &s.ends)
	for _, q := range s.examinedQueue() {
		e := &s.table[q.Job]
		if s.dependencyState(e) != depSatisfied {
			continue // held: no reservation until the dependency resolves
		}
		j := e.j
		d := s.demandFor(j)
		fit := profile.EarliestFit(d, now, j.LimitSec)
		if fit == now {
			if ja, placed := s.pol.Place(s.cl, j); placed {
				s.queue.Remove(q.Job)
				s.tel.BackfillPlace(j.ID)
				s.start(q.Job, ja) //dmplint:ignore hotpath-reach job start is per-admission, not per-tick; its event-registration closures and telemetry are sanctioned slow-path work
				profile.Reserve(d, now, j.LimitSec)
				continue
			}
			// The aggregate profile admits it but concrete placement
			// fails (fragmentation): fall through to a reservation at
			// the next breakpoint to stay conservative.
			fit = profile.EarliestFit(d, math.Nextafter(now, math.Inf(1)), j.LimitSec)
		}
		s.tel.BackfillHole(j.ID, fit)
		if !math.IsInf(fit, 1) {
			profile.Reserve(d, fit, j.LimitSec)
		}
	}
}

// currentResources summarises present availability for the reservation
// arithmetic. The node-class counts come straight from the cluster's idle
// split (O(1)); the class threshold there is NormalMB, the same comparison
// the rescan oracle in the tests applies per node.
//
//dmp:hotpath
func (s *Simulator) currentResources() sched.Resources {
	var r sched.Resources
	r.NormalNodes, r.LargeNodes = s.cl.IdleComputeSplit()
	r.FreeMB = s.cl.TotalFreeMB()
	return r
}

// endOrder is the running set in release order: ascending conservative end
// (start + limit), ties by ascending job ID. It is the sched.Releases
// sequence both backfill passes walk, so neither builds nor sorts a release
// list. A release's node counts were fixed at dispatch; its FreeMB is read
// live from the allocation, and only for the releases a walk reaches, so
// dynamic resizing stays exact. The tests check the order and every release
// after every event against an oracle that walks the job table instead.
type endOrder []*runningJob

// Len implements sched.Releases.
func (o *endOrder) Len() int { return len(*o) }

// Release implements sched.Releases.
//
//dmp:hotpath
func (o *endOrder) Release(i int) sched.Release {
	rj := (*o)[i]
	return sched.Release{At: rj.end, Res: sched.Resources{
		NormalNodes: rj.normal,
		LargeNodes:  rj.large,
		FreeMB:      rj.alloc.TotalMB(),
	}}
}

// endsBefore reports whether a is released before b: (end, job ID) order.
func endsBefore(a, b *runningJob) bool {
	return a.end < b.end || a.end == b.end && a.j.ID < b.j.ID
}

// insert files rj at its release-order position.
func (o *endOrder) insert(rj *runningJob) {
	l := *o
	i := sort.Search(len(l), func(k int) bool { return !endsBefore(l[k], rj) })
	l = append(l, nil)
	copy(l[i+1:], l[i:])
	l[i] = rj
	*o = l
}

// remove drops rj from the release order.
func (o *endOrder) remove(rj *runningJob) {
	l := *o
	i := sort.Search(len(l), func(k int) bool { return !endsBefore(l[k], rj) })
	if i < len(l) && l[i] == rj {
		copy(l[i:], l[i+1:])
		l[len(l)-1] = nil
		*o = l[:len(l)-1]
	}
}

// demandFor maps a job to the aggregate demand vector under the active
// policy.
func (s *Simulator) demandFor(j *job.Job) sched.Demand {
	d := sched.Demand{Nodes: j.Nodes}
	if s.cfg.Policy == policy.Baseline {
		d.LargeOnly = j.RequestMB > s.cfg.Cluster.NormalMB
	} else {
		d.UsePool = true
		d.PooledMB = j.TotalRequestMB()
	}
	return d
}

// shadowTimeFor computes the EASY reservation time for the queue head:
// the earliest time it fits assuming running jobs release their resources
// at their conservative ends (start + wallclock limit).
func (s *Simulator) shadowTimeFor(j *job.Job) float64 {
	return sched.ShadowTime(s.eng.Now(), s.currentResources(), &s.ends, s.demandFor(j))
}

// start dispatches the placed job at table index i.
func (s *Simulator) start(i int, ja *cluster.JobAllocation) {
	now := s.eng.Now()
	e := &s.table[i]
	j, rec := e.j, &e.rec
	if rec.FirstStart < 0 {
		rec.FirstStart = now
	}
	rec.LastStart = now
	rec.Attempts = append(rec.Attempts, Attempt{Start: now, End: -1})

	rj := &runningJob{
		j:        j,
		rec:      rec,
		idx:      i,
		alloc:    ja,
		start:    now,
		lastT:    now,
		progress: e.banked,
		slow:     1,
		period:   s.cfg.UpdateInterval * (1 + s.cfg.UpdateJitter*(2*s.randFloat()-1)),
		use:      j.Usage.Cursor(),
		target:   -1,
		end:      now + j.LimitSec,
		dirty:    true,
	}
	for k := range ja.PerNode {
		if s.cl.Node(ja.PerNode[k].Node).CapacityMB > s.cfg.Cluster.NormalMB {
			rj.large++
		} else {
			rj.normal++
		}
	}
	e.banked = 0
	e.run = rj
	s.runList = insertByID(s.runList, rj)
	s.ends.insert(rj)
	s.domainize(rj)
	s.stale = true // new member: its home domains' traffic changes
	s.curAllocMB += ja.TotalMB()
	s.curBusyNodes += len(ja.PerNode)

	if s.cfg.EnforceTimeLimit {
		rj.limitEv = s.eng.After(j.LimitSec, evTag(tagLimit, i), func(*sim.Engine) { s.onTimeLimit(i) })
	}
	if s.pol.Tracks() {
		rj.onUpdate = s.updateAction(i)
		rj.updateEv = s.eng.After(rj.period, evTag(tagUpdate, i), rj.onUpdate)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobStarted(now, j, ja.TotalMB()-ja.RemoteMB(), ja.RemoteMB())
	}
	if s.tel != nil {
		s.tel.JobStart(j.ID, len(ja.PerNode), ja.TotalMB()-ja.RemoteMB(), ja.RemoteMB())
		for i := range ja.PerNode {
			na := &ja.PerNode[i]
			for _, l := range na.Leases {
				s.tel.LeaseGrant(j.ID, int(na.Node), int(l.Lender), l.MB)
			}
		}
		s.poolCheck(rj)
	}
	s.refreshAfter(rj)
}

func (s *Simulator) onFinish(i int)    { s.finishJob(i, AttemptCompleted, Completed) }
func (s *Simulator) onTimeLimit(i int) { s.finishJob(i, AttemptTimedOut, TimedOut) }

// finishJob closes the running attempt of the job at table index i as how
// and concludes the job with out: the shared body of its finish and
// time-limit events, whichever fires first (teardown cancels the other).
func (s *Simulator) finishJob(i int, how AttemptEnd, out Outcome) {
	s.accrue()
	rj := s.table[i].run
	if rj == nil {
		return
	}
	s.bank(rj, s.eng.Now())
	s.teardown(rj)
	s.closeAttempt(rj.rec, how)
	s.conclude(i, out)
	s.refreshAfter(rj)
	s.ensureTick(true)
}

// closeAttempt finalises the record's open attempt.
func (s *Simulator) closeAttempt(rec *JobRecord, how AttemptEnd) {
	if n := len(rec.Attempts); n > 0 && rec.Attempts[n-1].End < 0 {
		rec.Attempts[n-1].End = s.eng.Now()
		rec.Attempts[n-1].How = how
	}
}

// teardown cancels a running job's events, releases its memory and nodes,
// and removes it from the running set.
func (s *Simulator) teardown(rj *runningJob) {
	s.eng.Cancel(rj.finishEv)
	s.eng.Cancel(rj.limitEv)
	s.eng.Cancel(rj.updateEv)
	s.curAllocMB -= rj.alloc.TotalMB()
	s.curBusyNodes -= len(rj.alloc.PerNode)
	if s.tel != nil {
		// Emit before Release truncates the lease records.
		for i := range rj.alloc.PerNode {
			na := &rj.alloc.PerNode[i]
			for _, l := range na.Leases {
				s.tel.LeaseRevoke(rj.j.ID, int(na.Node), int(l.Lender), l.MB)
			}
		}
	}
	if err := rj.alloc.Release(s.cl); err != nil { //dmplint:ignore hotpath-reach teardown runs once per job completion; Release's error wrapping exists only on the ledger-corruption path
		panic(err) // ledger corruption: fail loudly
	}
	s.table[rj.idx].run = nil
	rj.gone = true
	s.runList = removeByID(s.runList, rj)
	s.ends.remove(rj)
	if rj.remote {
		for _, d := range rj.homeDoms {
			s.domRemote[d] = removeByID(s.domRemote[d], rj)
		}
		rj.remote = false
	}
	s.stale = true  // departed member: its home domains' traffic changes
	s.poolCheck(rj) // rising free re-arms the watermark detector
}

// onMemoryUpdate is the Monitor→Decider→Actuator→Executor cycle for one job
// (paper §2.2): read the usage the job will exhibit until the next update,
// resize the allocation to it, handle OOM, refresh the contention model.
//
//dmp:hotpath
func (s *Simulator) onMemoryUpdate(i int) {
	s.accrue()
	rj := s.table[i].run
	if rj == nil {
		return
	}
	s.bank(rj, s.eng.Now())

	// Decider: provision for the maximum usage between now and the next
	// update, read from the offline usage trace at the job's progress.
	window := rj.period / rj.slow // wallclock window mapped to progress time
	target := rj.use.MaxIn(rj.progress, rj.progress+window)

	before := rj.alloc.TotalMB()
	oom := false
	if target != rj.target { // an unchanged target leaves every node as it is
		oom = s.resize(rj, target)
	}
	after := rj.alloc.TotalMB()
	s.curAllocMB += after - before
	s.poolCheck(rj)

	if oom {
		s.oomKill(rj)
		return
	}
	if s.cfg.Observer != nil && after != before {
		s.cfg.Observer.AllocationChanged(s.eng.Now(), rj.j, before, after)
	}
	rj.updateEv = s.eng.After(rj.period, evTag(tagUpdate, i), rj.onUpdate)
	s.refreshAfter(rj)
}

// resize adjusts every compute node of rj to target and reports whether the
// job ran out of memory. It marks rj dirty and the model stale only when a
// node's remote share can have moved: its remote memory changed, or it held
// remote memory and its total changed. One Adjust call either grows or
// shrinks a node, so an unchanged (total, remote) pair means untouched
// leases, and a node without remote memory before and after has remote
// share 0 at any size; either way the contention cache stays exact.
//
//dmp:hotpath
func (s *Simulator) resize(rj *runningJob, target int64) (oom bool) {
	for i := range rj.alloc.PerNode {
		na := &rj.alloc.PerNode[i]
		nodeBefore, remoteBefore := na.TotalMB(), na.RemoteMB()
		err := s.adj.Adjust(s.cl, rj.alloc, i, target, rj.domSet)
		if na.RemoteMB() != remoteBefore || remoteBefore > 0 && na.TotalMB() != nodeBefore {
			rj.dirty = true
			s.stale = true
		}
		if s.tel != nil {
			if d := na.TotalMB() - nodeBefore; d != 0 {
				s.tel.LeaseAdjust(rj.j.ID, int(na.Node), d, na.RemoteMB()-remoteBefore)
			}
		}
		if err != nil {
			if err == policy.ErrOutOfMemory {
				return true
			}
			panic(err)
		}
	}
	rj.target = target
	return false
}

// updateAction binds the memory-update handler of the job at table index
// i. start binds it once per attempt, and every update period reschedules
// the same action.
func (s *Simulator) updateAction(i int) sim.Action {
	return func(*sim.Engine) { s.onMemoryUpdate(i) }
}

// oomKill applies the configured OOM handling: terminate the job, release
// everything, and resubmit (F/R from scratch, C/R with banked progress)
// unless the restart cap is reached.
func (s *Simulator) oomKill(rj *runningJob) {
	s.res.OOMKills++
	rj.rec.Restarts++
	progress := rj.progress
	s.teardown(rj)
	s.closeAttempt(rj.rec, AttemptOOMKilled)
	if s.cfg.Observer != nil {
		s.cfg.Observer.JobKilledOOM(s.eng.Now(), rj.j, rj.rec.Restarts)
	}

	s.tel.JobAttemptEnd(rj.j.ID, AttemptOOMKilled.String(), rj.rec.Restarts)
	if rj.rec.Restarts >= s.cfg.MaxRestarts {
		s.conclude(rj.idx, Abandoned)
	} else {
		e := &s.table[rj.idx]
		if s.cfg.OOM == CheckpointRestart {
			// Resume from the last checkpoint boundary, not the kill
			// point: a real C/R library snapshots periodically.
			banked := progress
			if ci := s.cfg.CheckpointInterval; ci > 0 {
				banked = math.Floor(progress/ci) * ci
			}
			e.banked = banked
		}
		if rj.rec.Restarts >= s.cfg.PriorityBoost {
			e.prio = rj.rec.Restarts
		}
		s.enqueue(rj.idx, true)
	}
	s.refreshAfter(rj)
	s.ensureTick(true)
}

// ----------------------------------------------------- progress banking

// bank converts wallclock elapsed from the last banking point to now into
// job progress at the slowdown in force since then, and integrates actual
// memory use into the utilisation counters.
//
// Slowdown is piecewise constant, so a job needs banking only when its
// slowdown is about to change (reslow) or when something reads its
// progress: its own memory-update, finish and time-limit handlers,
// DescheduleRepack, and Finish for jobs a horizon left running. Between
// those points its pending finish event already encodes the progress.
//
//dmp:hotpath
func (s *Simulator) bank(rj *runningJob, now float64) {
	dt := now - rj.lastT
	if dt <= 0 {
		return
	}
	p0 := rj.progress
	p1 := p0 + dt/rj.slow
	if p1 > rj.j.BaseRuntime {
		p1 = rj.j.BaseRuntime
	}
	rj.progress = p1
	rj.lastT = now

	var meanUse float64
	if p1 > p0 {
		m, err := rj.use.MeanIn(p0, p1)
		if err != nil {
			panic(err)
		}
		meanUse = m
	} else {
		meanUse = float64(rj.use.At(p0))
	}
	s.res.UsedMBSeconds += meanUse * float64(rj.j.Nodes) * dt
}

// remoteFraction returns the (possibly distance-weighted) remote share of
// one compute node's allocation. Without a topology, or with a zero hop
// penalty, it equals the plain remote fraction; otherwise each lease is
// weighted by 1 + HopPenalty·(hops−1).
func (s *Simulator) remoteFraction(na *cluster.NodeAllocation) float64 {
	total := na.TotalMB()
	if total == 0 {
		return 0
	}
	if s.cfg.Topology == nil || s.cfg.HopPenalty == 0 {
		return 1 - na.LocalFraction()
	}
	var weighted float64
	for _, l := range na.Leases {
		h := s.cfg.Topology.Hops(int(na.Node), int(l.Lender))
		w := 1.0
		if h > 1 {
			w += s.cfg.HopPenalty * float64(h-1)
		}
		weighted += float64(l.MB) * w
	}
	return weighted / float64(total)
}

// ---------------------------------------------------- pressure domains

// domainOf returns a node's pressure domain: 0 under the global model, its
// ledger shard in domains mode.
func (s *Simulator) domainOf(id cluster.NodeID) int32 {
	if s.nDom == 1 {
		return 0
	}
	return int32(s.cl.ShardOf(id))
}

// domainize freezes rj's pressure-domain footprint at dispatch: each compute
// node's home domain, the sorted unique home-domain list, and the domain
// set — home domains plus every placement lease's lender domain. In domains
// mode all later growth is confined to the domain set (Adjuster.Adjust), so
// the footprint never widens mid-attempt; an OOM restart re-places the job
// and freezes a fresh one.
func (s *Simulator) domainize(rj *runningJob) {
	rj.nodeDom = rj.nodeDom[:0]
	rj.homeDoms = rj.homeDoms[:0]
	for i := range rj.alloc.PerNode {
		d := s.domainOf(rj.alloc.PerNode[i].Node)
		rj.nodeDom = append(rj.nodeDom, d)
		rj.homeDoms = addDom(rj.homeDoms, d)
	}
	rj.domSet = append(rj.domSet[:0], rj.homeDoms...)
	for i := range rj.alloc.PerNode {
		for _, l := range rj.alloc.PerNode[i].Leases {
			rj.domSet = addDom(rj.domSet, s.domainOf(l.Lender))
		}
	}
	if cap(rj.domFrac) < len(rj.homeDoms) {
		rj.domFrac = make([]float64, len(rj.homeDoms))
	}
	rj.domFrac = rj.domFrac[:len(rj.homeDoms)]
}

// addDom inserts d into a sorted unique domain list.
func addDom(doms []int32, d int32) []int32 {
	i := sort.Search(len(doms), func(k int) bool { return doms[k] >= d })
	if i < len(doms) && doms[i] == d {
		return doms
	}
	doms = append(doms, 0)
	copy(doms[i+1:], doms[i:])
	doms[i] = d
	return doms
}

// domIndex returns d's position in a sorted unique domain list.
//
//dmp:hotpath
func domIndex(doms []int32, d int32) int {
	return sort.Search(len(doms), func(k int) bool { return doms[k] >= d })
}

// insertByID adds rj to a job list kept sorted by job ID (the running set,
// a domain's remote holders), so traffic sums and refinish calls visit
// jobs in the same order every run.
//
//dmp:hotpath
func insertByID(list []*runningJob, rj *runningJob) []*runningJob {
	i := sort.Search(len(list), func(k int) bool { return list[k].j.ID >= rj.j.ID })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = rj
	return list
}

// removeByID removes rj from a job list kept sorted by job ID.
//
//dmp:hotpath
func removeByID(list []*runningJob, rj *runningJob) []*runningJob {
	i := sort.Search(len(list), func(k int) bool { return list[k].j.ID >= rj.j.ID })
	if i < len(list) && list[i] == rj {
		copy(list[i:], list[i+1:])
		list[len(list)-1] = nil
		list = list[:len(list)-1]
	}
	return list
}

// recontend rebuilds rj's contention cache from its current allocation: the
// per-node traffic contributions (in PerNode order, so a domain's traffic sum
// visits them exactly as a full rescan does), the maximum distance-weighted
// remote fraction of rj's nodes resident in each home domain, and their
// maximum over all nodes. Each cached value is a deterministic function of
// the allocation alone, so reusing it across refreshes is bit-exact. It also
// files rj in or out of its home domains' remote-holding lists.
//
//dmp:hotpath
func (s *Simulator) recontend(rj *runningJob) {
	rj.nodeTraffic = rj.nodeTraffic[:0]
	for k := range rj.domFrac {
		rj.domFrac[k] = 0
	}
	holds := false
	for i := range rj.alloc.PerNode {
		na := &rj.alloc.PerNode[i]
		rj.nodeTraffic = append(rj.nodeTraffic, slowdown.NodeTraffic(rj.j.Profile, 1-na.LocalFraction()))
		k := 0
		if len(rj.homeDoms) > 1 {
			k = domIndex(rj.homeDoms, rj.nodeDom[i])
		}
		if wf := s.remoteFraction(na); wf > rj.domFrac[k] {
			rj.domFrac[k] = wf
		}
		holds = holds || na.RemoteMB() > 0
	}
	rj.maxFrac = slowdown.MaxWeightedFrac(rj.domFrac)
	rj.dirty = false
	if holds != rj.remote {
		for _, d := range rj.homeDoms {
			if holds {
				s.domRemote[d] = insertByID(s.domRemote[d], rj)
			} else {
				s.domRemote[d] = removeByID(s.domRemote[d], rj)
			}
		}
		rj.remote = holds
	}
}

// refreshAfter refreshes the contention model after an event touching rj,
// which may already have left the running set. It must be called after any
// change to memory placements. The global model is its one-domain case.
//
// Only the domains rj calls home can have changed: every site that sets
// stale (dispatch, teardown, a resize that moves a node's remote share)
// changes rj's own allocation, and a job's traffic lands in its nodes' home
// domains. Jobs outside those domains keep their rho, and with it their
// slowdown, banked progress and pending finish event. Inside them, a job
// without remote memory injects no traffic and runs at slowdown exactly 1
// whatever the pressure, so the refresh walks only the touched domains'
// remote holders plus rj:
//
//   - With stale clear — nothing started or finished, and no node's remote
//     share moved, since the last refresh — it returns at once: O(1). A
//     resize of nodes that hold no remote memory before and after leaves
//     stale clear: their traffic and fraction are 0 at any size, so no
//     rho, cache entry or remote-holder list can change.
//   - Otherwise rj's contention cache is rebuilt if it is dirty (at any
//     refresh rj is the only job that can be dirty); each touched
//     domain's traffic is summed over its remote holders' nodes resident
//     there, in (job ID, node) order; and each touched domain's remote
//     holders plus rj are reslowed, domains ascending and jobs in ascending
//     ID order, a job spanning several touched domains once. Only a job
//     whose slowdown changed (or that has no finish event yet) is banked
//     and refinished: O(touched domains' remote holders).
//
// The traffic sums are bit-identical to the flat per-domain sums over every
// running job that the rescan oracle in the tests computes: the skipped
// terms are exactly zero, and adding zero leaves a float sum unchanged. The
// skipped jobs' reslow would do nothing, so the walk reslows the same jobs
// to the same values in the same order as a walk over every resident.
//
//dmp:hotpath
//dmp:domainmerge
func (s *Simulator) refreshAfter(rj *runningJob) {
	if !s.stale {
		return
	}
	s.stale = false
	live := !rj.gone
	if live && rj.dirty {
		s.recontend(rj)
	}
	for _, d := range rj.homeDoms {
		var traffic float64
		for _, oj := range s.domRemote[d] {
			if len(oj.homeDoms) == 1 { // every node resident in d
				for _, t := range oj.nodeTraffic {
					traffic += t
				}
				continue
			}
			for i, t := range oj.nodeTraffic {
				if oj.nodeDom[i] == d {
					traffic += t
				}
			}
		}
		s.domRho[d] = slowdown.PressureBW(traffic, s.domBW[d])
	}
	now := s.eng.Now()
	s.refreshEpoch++
	visit := live && !rj.remote // rj takes its ID-order turn in its first home domain
	for _, d := range rj.homeDoms {
		rho := s.domRho[d]
		for _, oj := range s.domRemote[d] {
			if visit && rj.j.ID < oj.j.ID {
				s.reslow(rj, s.domainSlowdown(rj), now)
				visit = false
			}
			if oj.epoch == s.refreshEpoch {
				continue
			}
			oj.epoch = s.refreshEpoch
			if len(oj.homeDoms) == 1 {
				s.reslow(oj, slowdown.JobSlowdownFromMax(oj.j.Profile, oj.maxFrac, rho), now)
			} else {
				s.reslow(oj, s.domainSlowdown(oj), now)
			}
		}
		if visit {
			s.reslow(rj, s.domainSlowdown(rj), now)
			visit = false
		}
	}
}

// domainSlowdown derives rj's slowdown as the worst over its home domains:
// each domain contributes the single-rho slowdown of rj's nodes resident
// there at that domain's pressure. With one home domain it is the global
// formula over rj's maximum fraction, bit-for-bit.
//
//dmp:hotpath
//dmp:domainmerge
func (s *Simulator) domainSlowdown(rj *runningJob) float64 {
	if len(rj.homeDoms) == 1 {
		return slowdown.JobSlowdownFromMax(rj.j.Profile, rj.maxFrac, s.domRho[rj.homeDoms[0]])
	}
	slow := 1.0
	for k, d := range rj.homeDoms {
		if v := slowdown.JobSlowdownFromMax(rj.j.Profile, rj.domFrac[k], s.domRho[d]); v > slow {
			slow = v
		}
	}
	return slow
}

// reslow moves rj to slowdown slow. A job whose slowdown is unchanged and
// whose finish event is pending is left alone; otherwise its progress is
// banked at the old slowdown and its finish event recomputed at the new one.
//
//dmp:hotpath
func (s *Simulator) reslow(rj *runningJob, slow, now float64) {
	if slow == rj.slow && rj.finishEv.Pending() {
		return
	}
	s.bank(rj, now)
	rj.slow = slow
	s.refinish(rj, now)
}

// refinish recomputes rj's completion time at the current slowdown and
// reschedules the finish event only if it moved.
//
//dmp:hotpath
func (s *Simulator) refinish(rj *runningJob, now float64) {
	remaining := rj.j.BaseRuntime - rj.progress
	if remaining < 0 {
		remaining = 0
	}
	at := now + remaining*rj.slow
	if math.IsInf(at, 0) || math.IsNaN(at) {
		panic(fmt.Sprintf("core: bad finish time for job %d", rj.j.ID))
	}
	if !rj.finishEv.Pending() {
		i := rj.idx
		rj.finishEv = s.eng.Schedule(at, evTag(tagFinish, i), func(*sim.Engine) { s.onFinish(i) }) //dmplint:ignore hotpath-alloc scheduled once per finish-time move, not per refresh step; Reschedule reuses the handle below
	} else if rj.finishEv.At() != at {
		rj.finishEv = s.eng.Reschedule(rj.finishEv, at)
	}
}
