package policy

import (
	"errors"

	"dismem/internal/cluster"
	"dismem/internal/telemetry"
)

// ErrOutOfMemory is returned by Adjust when a job's usage grows and the
// system-wide pool cannot satisfy it. The caller applies the configured
// out-of-memory handling (Fail/Restart or Checkpoint/Restart).
var ErrOutOfMemory = errors.New("policy: out of disaggregated memory")

// Adjuster is the Decider + Actuator of the dynamic policy. Growth borrows
// through the same planner as placement, one node at a time, so one
// Adjuster per simulator makes every adjustment tick allocation-free. It is
// not safe for concurrent use.
type Adjuster struct {
	// Tel, when non-nil, receives a LeaseGrant event for every remote
	// borrow the grow path performs. The Actuator is the only place that
	// knows which lender satisfied which deficit, so the emission lives
	// here rather than in the simulator.
	Tel *telemetry.Recorder

	planner
	one [1]plan          // the grown node's plan
	own []cluster.NodeID // the adjusted job's compute nodes
}

// NewAdjuster returns an Adjuster that grows in lender order o.
func NewAdjuster(o Order) *Adjuster {
	a := &Adjuster{}
	a.init(o)
	return a
}

// Adjust resizes compute node i of the job's allocation to targetMB.
//
// Shrinking deallocates remote memory before local memory; growing
// allocates local memory first and borrows remotely only for the remainder,
// maximising the local-to-remote ratio as described in §2.2.
//
// doms is the job's frozen pressure-domain set (ledger shards, sorted
// ascending). Only the domain-first order reads it: growth then borrows
// from the compute node's own shard first and then from the other shards
// in doms, and reports ErrOutOfMemory when those are exhausted even if
// other domains still hold free memory, so a job's contention footprint
// never leaves its frozen domain set; nil doms spills to the global order,
// as placement does. Shrinking releases existing leases, which by
// construction already lie inside doms.
//
// On ErrOutOfMemory the allocation retains whatever it held plus any
// partial growth — the caller is expected to kill and resubmit the job,
// which releases everything.
//
//dmp:hotpath
func (a *Adjuster) Adjust(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, targetMB int64, doms []int32) error {
	if targetMB < 0 {
		return cluster.ErrNegativeAmount
	}
	na := &ja.PerNode[i]
	cur := na.TotalMB()
	switch {
	case targetMB < cur:
		return shrinkTo(cl, ja, i, cur-targetMB)
	case targetMB > cur:
		return a.grow(cl, ja, i, targetMB-cur, doms)
	}
	return nil
}

// Adjust is the one-shot form of Adjuster.Adjust with the most-free lender
// order, kept for tests and callers outside the simulation loop.
func Adjust(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, targetMB int64) error {
	return NewAdjuster(Order{}).Adjust(cl, ja, i, targetMB, nil)
}

//
//dmp:hotpath
func shrinkTo(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, excess int64) error {
	// Remote first: remote accesses are the expensive ones, so freeing
	// them both returns pool memory and speeds the job up.
	returned, err := ja.ShrinkRemote(cl, i, excess)
	if err != nil {
		return err
	}
	if rest := excess - returned; rest > 0 {
		return ja.ShrinkLocal(cl, i, rest)
	}
	return nil
}

// grow plans node i's growth as a one-node placement — local memory first,
// then the deficit from the lender sequence, excluding the job's own
// compute nodes — and applies the plan, partial or not.
//
//dmp:hotpath
func (a *Adjuster) grow(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, need int64, doms []int32) error {
	na := &ja.PerNode[i]
	pl := &a.one[0]
	pl.node = na.Node
	pl.local = min(need, max(cl.Node(na.Node).FreeMB(), 0))
	pl.need = need - pl.local
	pl.borrow = pl.borrow[:0]
	ok := true
	if pl.need > 0 {
		own := a.own[:0]
		for k := range ja.PerNode {
			own = append(own, ja.PerNode[k].Node)
		}
		a.own = own
		ok = a.borrow(cl, a.one[:], own, doms)
	}
	if pl.local > 0 {
		if err := ja.GrowLocal(cl, i, pl.local); err != nil {
			return err
		}
	}
	for _, l := range pl.borrow {
		if err := ja.GrowRemote(cl, i, l.Lender, l.MB); err != nil {
			return err
		}
		a.Tel.LeaseGrant(ja.Job, int(na.Node), int(l.Lender), l.MB)
	}
	if !ok {
		// Partial growth is retained; the caller kills and resubmits, which
		// releases everything and re-places the job.
		return ErrOutOfMemory
	}
	return nil
}
