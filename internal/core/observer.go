package core

import "dismem/internal/job"

// Observer receives simulator lifecycle events. All callbacks run
// synchronously inside the event loop — implementations must not call back
// into the simulator. Any method may be a no-op.
type Observer interface {
	// JobSubmitted fires when a job enters the pending queue (first
	// submission and OOM resubmissions).
	JobSubmitted(t float64, j *job.Job, resubmit bool)
	// JobStarted fires at dispatch with the placed memory totals.
	JobStarted(t float64, j *job.Job, localMB, remoteMB int64)
	// JobFinished fires at any terminal event of an attempt: completion,
	// time limit, or abandonment.
	JobFinished(t float64, j *job.Job, outcome Outcome)
	// JobKilledOOM fires when the dynamic policy kills a job whose usage
	// outgrew the pool.
	JobKilledOOM(t float64, j *job.Job, restarts int)
	// AllocationChanged fires when a memory update resizes a running
	// job's allocation.
	AllocationChanged(t float64, j *job.Job, beforeMB, afterMB int64)
}

// Tally is an Observer counting events, handy in tests and summaries.
type Tally struct {
	Submitted, Resubmitted, Started, Finished, OOMKills, Resizes int
	ReclaimedMB                                                  int64 // total shrinkage applied by resizes
	GrownMB                                                      int64 // total growth applied by resizes
}

func (c *Tally) JobSubmitted(_ float64, _ *job.Job, resubmit bool) {
	if resubmit {
		c.Resubmitted++
	} else {
		c.Submitted++
	}
}
func (c *Tally) JobStarted(float64, *job.Job, int64, int64) { c.Started++ }
func (c *Tally) JobFinished(float64, *job.Job, Outcome)     { c.Finished++ }
func (c *Tally) JobKilledOOM(float64, *job.Job, int)        { c.OOMKills++ }
func (c *Tally) AllocationChanged(_ float64, _ *job.Job, before, after int64) {
	c.Resizes++
	if after < before {
		c.ReclaimedMB += before - after
	} else {
		c.GrownMB += after - before
	}
}

var _ Observer = (*Tally)(nil)
