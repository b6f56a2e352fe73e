// Package telemetry is the simulator's observability layer: a typed event
// stream, a fixed-interval pool sampler, and pluggable sinks.
//
// The package is deliberately dependency-free (stdlib only, no other dismem
// packages) so every layer of the simulator — engine, scheduler, cluster
// ledger, policies — can emit into it without import cycles.
//
// Design constraints, in priority order:
//
//  1. Zero cost when disabled. The simulator holds a *Recorder that is nil
//     when telemetry is off; every emit method has a nil receiver check, so
//     the disabled path is a single pointer compare and zero allocations.
//  2. Determinism. All emission happens inside the single-threaded event
//     loop, and the JSONL encoding is hand-rolled with a fixed field order,
//     so the same seed and parameters produce a byte-identical event log.
//     A golden SHA-256 digest test in internal/core locks this down.
//  3. One store. The Recorder only stamps, counts and forwards; a run held
//     in memory is a Log of fixed-size, pointer-free records in emission
//     order, which renders to JSONL or replays into any other sink, and
//     ReadLog decodes a JSONL log back into one.
package telemetry

// Kind enumerates the typed events of the stream.
type Kind uint8

const (
	// KindJobSubmit fires when a job enters the pending queue. Aux is 1
	// for an OOM resubmission, 0 for the first submission.
	KindJobSubmit Kind = iota
	// KindJobStart fires at dispatch. Node carries the node count, MB the
	// local memory, Aux the remote (borrowed) memory.
	KindJobStart
	// KindJobEnd fires once at a job's FINAL outcome. Detail is the outcome
	// ("completed", "timed-out", "abandoned"); Aux is the restart count.
	// Non-final attempt terminations (an OOM kill followed by a restart or
	// by abandonment) are KindJobAttemptEnd, so summing job_end events
	// counts each job exactly once.
	KindJobEnd
	// KindLeaseGrant fires when remote memory is borrowed: Node is the
	// borrowing compute node, Lender the node lending MB megabytes. Emitted
	// at placement and on dynamic growth.
	KindLeaseGrant
	// KindLeaseAdjust fires when a memory update resizes one compute
	// node's allocation: MB is the total delta (negative = shrink), Aux
	// the remote share of the delta.
	KindLeaseAdjust
	// KindLeaseRevoke fires when a lease is returned at job teardown:
	// Node is the borrower, Lender the lender, MB the returned amount.
	KindLeaseRevoke
	// KindBackfillHole fires when the backfill pass reserves a future
	// start for a job that does not fit now: V is the reservation (shadow)
	// time; +Inf means the job can never start under current releases.
	KindBackfillHole
	// KindBackfillPlace fires when the backfill pass starts a job ahead of
	// the queue head.
	KindBackfillPlace
	// KindPoolWatermark fires when the free disaggregated pool crosses
	// below a configured threshold: Aux is the threshold percentage, MB
	// the free pool at the crossing, V the exact free fraction. Node is -1
	// for the system-wide pool; in pressure-domains mode, per-domain
	// crossings carry the domain index in Node.
	KindPoolWatermark
	// KindJobAttemptEnd fires when one attempt of a job terminates without
	// being the job's final outcome — today that is an OOM kill (Detail
	// "oom-killed", Aux the restart count). A job killed and abandoned used
	// to emit job_end twice (kill + abandon), which double-counted terminal
	// events in aggregation; the attempt/final split fixes that. Declared
	// after the original kinds so their numeric values — and with them the
	// golden digests of logs containing no OOM events — are unchanged.
	KindJobAttemptEnd

	// KindBranch is emitted on the base run's recorder when a what-if
	// branch forks off it: Aux is the shared-prefix event count the branch
	// inherits without re-simulating, MB the branch's CoW node-slice copy
	// count, Node its CoW shard-thaw count, and Detail the branch's variant
	// name; Job is -1. Appended after the original kinds so their numeric
	// values — and the golden digests of existing logs — are unchanged.
	KindBranch

	// KindCount is the number of event kinds (for counter arrays).
	KindCount
)

// kindNames are the wire names used in the JSONL encoding; the array is
// indexed by Kind and must stay in declaration order.
var kindNames = [KindCount]string{
	"job_submit",
	"job_start",
	"job_end",
	"lease_grant",
	"lease_adjust",
	"lease_revoke",
	"backfill_hole",
	"backfill_place",
	"pool_watermark",
	"job_attempt_end",
	"branch",
}

// String returns the event kind's wire name.
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName returns the Kind for a wire name; ok is false for unknown
// names (including "pool_sample", which is a Sample, not an Event).
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one typed occurrence in the stream. Fields that do not apply to
// a kind are zero (-1 for the ID fields); the per-kind meaning of MB, Aux
// and V is documented on the Kind constants.
type Event struct {
	T      float64 // simulated time, seconds
	Kind   Kind
	Job    int     // job ID, or -1
	Node   int     // compute node / node count, or -1
	Lender int     // lender node, or -1
	MB     int64   // memory quantity (may be negative for shrinks)
	Aux    int64   // secondary quantity (remote MB, restarts, threshold pct)
	V      float64 // secondary time/fraction value
	Detail string  // short enum-like string (job outcome)
}

// Sample is one fixed-interval snapshot of system-wide state.
type Sample struct {
	T       float64
	FreeMB  int64 // unallocated memory across the pool
	LentMB  int64 // memory lent to remote jobs
	Queue   int   // pending jobs
	Busy    int   // nodes running a job
	Running int   // running jobs
}
