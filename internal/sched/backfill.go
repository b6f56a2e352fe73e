package sched

import "math"

// Resources is an aggregate availability vector. Compute nodes are split by
// capacity class because the baseline policy can only place large-memory
// jobs on large nodes; FreeMB is the pool-wide free memory, which only the
// disaggregated policies consume.
type Resources struct {
	NormalNodes int
	LargeNodes  int
	FreeMB      int64
}

// Add returns r + s componentwise.
func (r Resources) Add(s Resources) Resources {
	return Resources{
		NormalNodes: r.NormalNodes + s.NormalNodes,
		LargeNodes:  r.LargeNodes + s.LargeNodes,
		FreeMB:      r.FreeMB + s.FreeMB,
	}
}

// Demand is the aggregate requirement of one job under a given policy.
type Demand struct {
	Nodes     int   // compute nodes required
	LargeOnly bool  // baseline: job only fits on large-capacity nodes
	PooledMB  int64 // disaggregated: total memory to draw from the pool
	UsePool   bool  // whether PooledMB applies (false for baseline)
}

// Fits reports whether the demand can be satisfied from r.
func (d Demand) Fits(r Resources) bool {
	if d.LargeOnly {
		if r.LargeNodes < d.Nodes {
			return false
		}
	} else if r.NormalNodes+r.LargeNodes < d.Nodes {
		return false
	}
	if d.UsePool && r.FreeMB < d.PooledMB {
		return false
	}
	return true
}

// Release is a future resource release: at time At, Res becomes available.
type Release struct {
	At  float64
	Res Resources
}

// Releases is a sequence of future releases in ascending At order, read by
// index. The simulator keeps its running jobs in that order, so the
// reservation arithmetic below walks the sequence front to back and never
// sorts or copies it; Release(i) may compute its entry on demand, and a
// walk that stops early reads no entry past the one it stopped at. Ties in
// At may come in any order: every Resources component is a non-negative
// count, so availability only grows along the sequence and Fits, once true,
// stays true.
type Releases interface {
	Len() int
	Release(i int) Release
}

// ShadowTime returns the earliest time the demand fits, assuming the current
// availability now plus the given future releases (typically the running
// jobs' conservative completion times, i.e. start + wallclock limit), and no
// new work starting. It returns +Inf if the demand never fits even after all
// releases — the scenario is infeasible. The walk stops at the first release
// after which the demand fits.
//
// This is the EASY-backfill reservation: the queue head is guaranteed to
// start no later than the shadow time, and backfilled jobs must not push it
// past that point.
//
//dmp:hotpath
func ShadowTime(nowTime float64, now Resources, releases Releases, d Demand) float64 {
	if d.Fits(now) {
		return nowTime
	}
	avail := now
	for i, n := 0, releases.Len(); i < n; i++ {
		r := releases.Release(i)
		avail = avail.Add(r.Res)
		if d.Fits(avail) {
			if r.At < nowTime {
				return nowTime
			}
			return r.At
		}
	}
	return math.Inf(1)
}

// CanBackfill reports whether a candidate job may start now without delaying
// the reserved queue head: its conservative completion (now + its wallclock
// limit) must not run past the shadow time.
//
// This is the conservative variant of EASY — it omits the "extra nodes"
// exception, under-backfilling slightly but never delaying the head.
func CanBackfill(now, candidateLimit, shadow float64) bool {
	if math.IsInf(shadow, 1) {
		// Head can never start; nothing a finite backfill does changes
		// that, so short jobs may flow freely.
		return true
	}
	return now+candidateLimit <= shadow
}
