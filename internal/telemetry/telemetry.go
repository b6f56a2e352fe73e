package telemetry

import (
	"fmt"
	"sort"
)

// Options configures a Recorder.
type Options struct {
	// Sink receives every event and sample as it is emitted; nil keeps
	// only the recorder's counts. A Log sink holds the run in memory.
	Sink Sink
	// SampleInterval is the time-series sampling period in simulated
	// seconds; 0 disables the sampler (the event stream still flows).
	SampleInterval float64
	// Watermarks are free-pool thresholds in percent of total capacity; a
	// KindPoolWatermark event fires when the free pool drops to or below
	// each threshold (re-armed when it rises back above). Nil selects the
	// default {50, 25, 10, 0}; an explicit empty slice disables them.
	Watermarks []int
}

// DefaultWatermarks are the free-pool thresholds used when Options leaves
// Watermarks nil.
var DefaultWatermarks = []int{50, 25, 10, 0}

// Recorder is the front end of the telemetry subsystem. The simulator holds
// a *Recorder that is nil when telemetry is disabled; every method is safe
// to call on a nil receiver and returns immediately, so the disabled emit
// path costs one pointer compare and zero allocations.
//
// A Recorder is bound to one simulation run and, like the simulator itself,
// is not safe for concurrent use.
type Recorder struct {
	sink      Sink
	interval  float64
	marks     []int // descending thresholds, pct of capacity
	level     int   // how many marks are currently crossed
	domLevels []int // per-domain crossing levels (pressure-domains mode)

	now     float64
	counts  [KindCount]uint64
	samples uint64
	err     error // first sink error; surfaced by Err/Close

	// ev and sm are the records handed to the sink. A sink takes them by
	// pointer through an interface, so a local would move to the heap on
	// every emit; these stay put.
	ev Event
	sm Sample
}

// New builds a Recorder from opts.
func New(opts Options) *Recorder {
	marks := opts.Watermarks
	if marks == nil {
		marks = DefaultWatermarks
	}
	sorted := append([]int(nil), marks...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	return &Recorder{
		sink:     opts.Sink,
		interval: opts.SampleInterval,
		marks:    sorted,
	}
}

// SampleInterval returns the configured sampling period (0 when the sampler
// or the whole recorder is disabled).
func (r *Recorder) SampleInterval() float64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// SetNow advances the recorder's clock; the simulator calls it at the top
// of every event handler so emitters deeper in the stack (policies, ledger)
// need not thread the simulated time through their signatures.
//
//dmp:hotpath
func (r *Recorder) SetNow(t float64) {
	if r == nil {
		return
	}
	r.now = t
}

// Now returns the recorder's clock.
//
//dmp:hotpath
func (r *Recorder) Now() float64 {
	if r == nil {
		return 0
	}
	return r.now
}

// emit stamps, counts, and forwards one event.
func (r *Recorder) emit(e Event) {
	r.counts[e.Kind]++
	if r.sink != nil {
		r.ev = e
		r.ev.T = r.now
		if err := r.sink.Event(&r.ev); err != nil && r.err == nil {
			r.err = err
		}
	}
}

// JobSubmit records a job entering the pending queue.
//
//dmp:hotpath
func (r *Recorder) JobSubmit(job int, resubmit bool) {
	if r == nil {
		return
	}
	var aux int64
	if resubmit {
		aux = 1
	}
	r.emit(Event{Kind: KindJobSubmit, Job: job, Node: -1, Lender: -1, Aux: aux})
}

// JobStart records a dispatch: nodes compute nodes, localMB local memory,
// remoteMB borrowed memory.
//
//dmp:hotpath
func (r *Recorder) JobStart(job, nodes int, localMB, remoteMB int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindJobStart, Job: job, Node: nodes, Lender: -1, MB: localMB, Aux: remoteMB})
}

// JobEnd records a job's final outcome and the restart count accumulated so
// far. Each job emits this at most once; non-final attempt terminations go
// through JobAttemptEnd.
//
//dmp:hotpath
func (r *Recorder) JobEnd(job int, outcome string, restarts int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindJobEnd, Job: job, Node: -1, Lender: -1, Aux: int64(restarts), Detail: outcome})
}

// JobAttemptEnd records a non-final attempt termination (an OOM kill that
// leads to a restart or abandonment) with the attempt's outcome name and the
// restart count including this kill.
//
//dmp:hotpath
func (r *Recorder) JobAttemptEnd(job int, outcome string, restarts int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindJobAttemptEnd, Job: job, Node: -1, Lender: -1, Aux: int64(restarts), Detail: outcome})
}

// LeaseGrant records node borrowing mb from lender on behalf of job.
//
//dmp:hotpath
func (r *Recorder) LeaseGrant(job, node, lender int, mb int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindLeaseGrant, Job: job, Node: node, Lender: lender, MB: mb})
}

// LeaseAdjust records a dynamic resize of one compute node's allocation:
// deltaMB total change (negative = shrink), deltaRemoteMB its remote share.
//
//dmp:hotpath
func (r *Recorder) LeaseAdjust(job, node int, deltaMB, deltaRemoteMB int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindLeaseAdjust, Job: job, Node: node, Lender: -1, MB: deltaMB, Aux: deltaRemoteMB})
}

// LeaseRevoke records a lease returned at teardown.
//
//dmp:hotpath
func (r *Recorder) LeaseRevoke(job, node, lender int, mb int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindLeaseRevoke, Job: job, Node: node, Lender: lender, MB: mb})
}

// BackfillHole records a reservation: job cannot start now and is promised
// the resources at time at (+Inf when it can never start under the current
// releases).
//
//dmp:hotpath
func (r *Recorder) BackfillHole(job int, at float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindBackfillHole, Job: job, Node: -1, Lender: -1, V: at})
}

// BackfillPlace records a job started by the backfill pass ahead of the
// queue head.
//
//dmp:hotpath
func (r *Recorder) BackfillPlace(job int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindBackfillPlace, Job: job, Node: -1, Lender: -1})
}

// PoolCheck tests the free pool against the configured watermarks and emits
// a KindPoolWatermark event for each threshold newly crossed on the way
// down. Rising back above a threshold re-arms it silently. The comparison
// is integer-exact (free·100 ≤ capacity·pct) so runs are reproducible.
//
//dmp:hotpath
func (r *Recorder) PoolCheck(freeMB, capacityMB int64) {
	if r == nil || capacityMB <= 0 {
		return
	}
	r.level = r.watermarks(-1, r.level, freeMB, capacityMB)
}

// PoolCheckDomain is PoolCheck scoped to one pressure domain: the same
// integer-exact watermark predicate against the domain's free memory and
// capacity, with an independent crossing level per domain and the domain
// index in the event's Node field.
//
//dmp:hotpath
func (r *Recorder) PoolCheckDomain(dom int, freeMB, capacityMB int64) {
	if r == nil || capacityMB <= 0 || dom < 0 {
		return
	}
	for len(r.domLevels) <= dom {
		r.domLevels = append(r.domLevels, 0)
	}
	r.domLevels[dom] = r.watermarks(dom, r.domLevels[dom], freeMB, capacityMB)
}

// watermarks is the walk behind PoolCheck and PoolCheckDomain: it counts
// the thresholds freeMB is at or below, emits a KindPoolWatermark event
// (node in its Node field) for each one crossed beyond level, and returns
// the new crossing level.
//
//dmp:hotpath
func (r *Recorder) watermarks(node, level int, freeMB, capacityMB int64) int {
	crossed := 0
	for _, pct := range r.marks {
		if freeMB*100 > capacityMB*int64(pct) {
			break
		}
		crossed++
	}
	for i := level; i < crossed; i++ {
		r.emit(Event{
			Kind: KindPoolWatermark, Job: -1, Node: node, Lender: -1,
			MB: freeMB, Aux: int64(r.marks[i]),
			V: float64(freeMB) / float64(capacityMB),
		})
	}
	return crossed
}

// Branch records a what-if branch forking off this run: name identifies the
// variant, sharedEvents is the prefix event count the branch inherited, and
// nodeCopies/shardThaws are the branch's CoW materialisation counters at the
// time of the report. Emitted on the BASE run's recorder (the branch records
// its own suffix through a forked recorder), so a no-op branch's stream
// stays byte-identical to a fresh run's.
func (r *Recorder) Branch(name string, sharedEvents uint64, nodeCopies, shardThaws int64) {
	if r == nil {
		return
	}
	r.emit(Event{
		Kind: KindBranch, Job: -1, Node: int(shardThaws), Lender: -1,
		MB: nodeCopies, Aux: int64(sharedEvents), Detail: name,
	})
}

// Sample counts one fixed-interval snapshot and forwards it to the sink.
//
//dmp:hotpath
func (r *Recorder) Sample(t float64, freeMB, lentMB int64, queue, busy, running int) {
	if r == nil {
		return
	}
	r.samples++
	if r.sink != nil {
		r.sm = Sample{T: t, FreeMB: freeMB, LentMB: lentMB, Queue: queue, Busy: busy, Running: running}
		if err := r.sink.Sample(&r.sm); err != nil && r.err == nil {
			r.err = err
		}
	}
}

// Samples returns the number of samples recorded so far.
func (r *Recorder) Samples() uint64 {
	if r == nil {
		return 0
	}
	return r.samples
}

// Count returns the number of events of kind k emitted so far.
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || k >= KindCount {
		return 0
	}
	return r.counts[k]
}

// TotalEvents returns the total number of events emitted.
func (r *Recorder) TotalEvents() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for _, c := range r.counts {
		t += c
	}
	return t
}

// Err returns the first sink error encountered, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}

// Close flushes and closes the sink and returns the first error of the
// run (emit-time or close-time). Closing a nil recorder is a no-op.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	if r.sink != nil {
		if err := r.sink.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("telemetry: close: %w", err)
		}
	}
	return r.err
}

// Fork returns a recorder that continues this recorder's emission state on a
// new sink: same sampling interval and watermark thresholds, same clock, and
// the same watermark crossing levels (global and per-domain). A branched
// simulation records through a fork, so the branch's suffix stream is
// byte-identical to the suffix a fresh run would have emitted past the fork
// point. Event and sample counts start at zero — they describe the branch's
// own emissions. Forking a nil recorder yields nil.
func (r *Recorder) Fork(sink Sink) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{
		sink:      sink,
		interval:  r.interval,
		marks:     r.marks, // sorted at construction, immutable after
		level:     r.level,
		domLevels: append([]int(nil), r.domLevels...),
		now:       r.now,
	}
}
