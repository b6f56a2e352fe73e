package core

import "dismem/internal/policy"

// This file holds the what-if overlay hooks a branched simulator applies
// between Fork and Finish. Each hook changes only how the future is
// simulated — past records, the ledger, and the event queue are untouched —
// so an overlay applied to a fork never perturbs the base, and a branch
// with no overlays remains byte-identical to the base's own future.
//
// Hooks must be applied between events: after Start (typically right after
// Fork) and before Finish, never from inside a running event handler.

// SetPolicy swaps the placement policy for the remainder of the run. Jobs
// already running keep their allocations and update cadence; jobs placed
// from now on use the new policy. The Result reports the policy active at
// the end, branch overlays included.
func (s *Simulator) SetPolicy(k policy.Kind) {
	s.cfg.Policy = k
	s.pol = policy.New(k, s.cfg.lenders())
	if s.res != nil {
		s.res.Policy = k.String()
	}
}

// SetBackfill swaps the backfill algorithm for all future scheduling passes.
func (s *Simulator) SetBackfill(m BackfillMode) {
	s.cfg.Backfill = m
}

// SetUpdateInterval changes the mean memory-update period for jobs
// dispatched from now on; running jobs keep the jittered period they drew at
// dispatch. Non-positive values are ignored.
func (s *Simulator) SetUpdateInterval(v float64) {
	if v > 0 {
		s.cfg.UpdateInterval = v
	}
}

// DescheduleRepack preempts every running job at the current instant and
// hands the emptied cluster back to the scheduler: progress is banked and
// checkpointed in full (a planned migration, unlike an OOM kill, loses no
// work), allocations and leases are released, and the jobs re-enter the
// queue at their current priority for the next immediate scheduling pass to
// repack. This is the descheduling study's core move — "repack this exact
// mid-run state from a clean slate" — and is deterministic: jobs are
// descheduled in ascending job-ID order and requeued in that same order.
func (s *Simulator) DescheduleRepack() {
	if len(s.runList) == 0 {
		return
	}
	s.accrue() // integrate utilisation up to now before the ledger moves
	now := s.eng.Now()
	victims := append([]*runningJob(nil), s.runList...) // teardown edits runList
	for _, rj := range victims {
		s.bank(rj, now)
		s.teardown(rj)
		s.closeAttempt(rj.rec, AttemptPreempted)
		s.tel.JobAttemptEnd(rj.j.ID, AttemptPreempted.String(), rj.rec.Restarts)
		// Full progress is retained regardless of the OOM mode: the branch
		// models a coordinated checkpoint-then-migrate, not a crash.
		if rj.progress > 0 {
			s.table[rj.idx].banked = rj.progress
		}
		s.enqueue(rj.idx, true)
	}
	// teardown marked the contention model stale; the next dispatch's
	// refresh rebuilds its domains from the now-empty running set.
	s.ensureTick(true)
}
