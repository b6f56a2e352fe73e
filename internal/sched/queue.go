// Package sched contains the scheduler-side mechanics that are independent
// of the memory model: the pending-job queue (FIFO with requeue-to-front
// priority for restarted jobs) and the EASY-backfill reservation arithmetic
// over abstract resource vectors.
//
// The simulator (internal/core) translates cluster + policy state into the
// Resources/Demand vectors used here, mirroring how Slurm's backfill plugin
// reasons about aggregate availability rather than concrete placements.
package sched

import "sort"

// Entry is one pending job in the queue. The queue orders entries by
// priority, enqueue time and insertion order only, so Job is an opaque key
// the caller chooses (the simulator uses the job's table index).
type Entry struct {
	Job      int
	Enqueue  float64 // time the job (re)entered the queue
	Priority int     // higher runs first; restarts can bump priority
	seq      int     // insertion order for stable FIFO
}

// Queue is the pending-job queue: ordered by (Priority desc, Enqueue asc,
// insertion order). It matches Slurm's default FIFO with priority override.
type Queue struct {
	items []Entry
	seq   int
	peak  int
}

// Len returns the number of pending entries.
func (q *Queue) Len() int { return len(q.items) }

// PeakLen returns the deepest the queue has ever been — an O(1)
// high-watermark that is available even when telemetry sampling is off.
func (q *Queue) PeakLen() int { return q.peak }

// Push adds a job to the queue.
func (q *Queue) Push(e Entry) {
	e.seq = q.seq
	q.seq++
	q.items = append(q.items, e)
	if len(q.items) > q.peak {
		q.peak = len(q.items)
	}
	q.sort()
}

func (q *Queue) sort() {
	sort.SliceStable(q.items, func(i, j int) bool {
		a, b := q.items[i], q.items[j]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		if a.Enqueue != b.Enqueue {
			return a.Enqueue < b.Enqueue
		}
		return a.seq < b.seq
	})
}

// Head returns the first entry without removing it; ok is false when empty.
func (q *Queue) Head() (Entry, bool) {
	if len(q.items) == 0 {
		return Entry{}, false
	}
	return q.items[0], true
}

// Items returns the queue contents in scheduling order, up to limit entries
// (limit <= 0 means all). The paper's configuration caps the examined queue
// and backfill window at 100 jobs.
func (q *Queue) Items(limit int) []Entry {
	n := len(q.items)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Entry, n)
	copy(out, q.items[:n])
	return out
}

// Remove deletes the entry for job, reporting whether it was present.
func (q *Queue) Remove(job int) bool {
	for i := range q.items {
		if q.items[i].Job == job {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Contains reports whether job is pending.
func (q *Queue) Contains(job int) bool {
	for i := range q.items {
		if q.items[i].Job == job {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the queue for simulation forking: same
// entries (including their stable-FIFO insertion order), same seq counter,
// same peak watermark — a forked simulator's queue evolves exactly like the
// original's would.
func (q *Queue) Clone() Queue {
	return Queue{items: append([]Entry(nil), q.items...), seq: q.seq, peak: q.peak}
}
