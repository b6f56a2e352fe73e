package core

import "fmt"

// Job dependencies (SWF "Preceding Job Number", Slurm's
// --dependency=afterok): a dependent job is held in the queue until its
// predecessor completes. If the predecessor ends any other way (timeout,
// abandonment) the dependent can never run and is abandoned, as Slurm
// cancels afterok dependents of failed jobs.

// checkDependencies links every job in the table to its predecessor's table
// index, through index (job ID to table index, used only here), and
// validates that every dependency exists and that the dependency graph is
// acyclic.
func checkDependencies(table []jobEntry, index map[int]int) error {
	for i := range table {
		e := &table[i]
		e.dep = -1
		if e.j.DependsOn == 0 {
			continue
		}
		k, ok := index[e.j.DependsOn]
		if !ok {
			return fmt.Errorf("core: job %d depends on unknown job %d", e.j.ID, e.j.DependsOn)
		}
		e.dep = k
	}
	// Cycle check: follow each chain with a visited set.
	state := make([]uint8, len(table)) // 0 unseen, 1 in progress, 2 done
	var follow func(i int) error
	follow = func(i int) error {
		switch state[i] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("core: dependency cycle through job %d", table[i].j.ID)
		}
		state[i] = 1
		if dep := table[i].dep; dep >= 0 {
			if err := follow(dep); err != nil {
				return err
			}
		}
		state[i] = 2
		return nil
	}
	for i := range table {
		if err := follow(i); err != nil {
			return err
		}
	}
	return nil
}

// depState classifies a job's dependency.
type depState int

const (
	depSatisfied depState = iota // no dependency, or predecessor completed
	depPending                   // predecessor not finished yet
	depFailed                    // predecessor ended without completing
)

// dependencyState reports whether the job may be scheduled.
func (s *Simulator) dependencyState(e *jobEntry) depState {
	if e.dep < 0 {
		return depSatisfied
	}
	switch s.table[e.dep].rec.Outcome {
	case Completed:
		return depSatisfied
	case TimedOut, Abandoned:
		return depFailed
	}
	return depPending
}

// cancelDependents abandons every *queued* job whose dependency chain is
// now unsatisfiable because the job at table index failed terminated without
// completing. Cancellation cascades: an abandoned dependent fails its own
// queued dependents. Jobs not yet submitted are rejected at submission time
// instead (onSubmit checks dependencyState).
func (s *Simulator) cancelDependents(failed int) {
	for i := range s.table {
		e := &s.table[i]
		if e.dep != failed {
			continue
		}
		if !s.queue.Contains(i) {
			continue // running, finished, or not yet submitted
		}
		s.queue.Remove(i)
		s.conclude(i, Abandoned) // cascades to i's own queued dependents
	}
}
