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

// Adjuster is the Decider + Actuator of the dynamic policy. It carries the
// scratch buffers the grow path needs, so one Adjuster per simulator makes
// every adjustment tick allocation-free. It is not safe for concurrent use.
type Adjuster struct {
	ranker LenderRanker // nil = most-free via the cluster index

	// Tel, when non-nil, receives a LeaseGrant event for every remote
	// borrow the grow path performs. The Actuator is the only place that
	// knows which lender satisfied which deficit, so the emission lives
	// here rather than in the simulator.
	Tel *telemetry.Recorder

	own   []cluster.NodeID // the adjusted job's compute nodes
	takes []cluster.Lease  // planned borrows for one grow
	exc   map[cluster.NodeID]bool
}

// NewAdjuster returns an Adjuster with the given lender order for growth;
// nil selects the default most-free order, served from the cluster's
// free-memory index without materialising a ranking.
func NewAdjuster(ranker LenderRanker) *Adjuster { return &Adjuster{ranker: ranker} }

// Adjust resizes compute node i of the job's allocation to targetMB.
//
// Shrinking deallocates remote memory before local memory; growing
// allocates local memory first and borrows remotely only for the remainder,
// maximising the local-to-remote ratio as described in §2.2.
//
// On ErrOutOfMemory the allocation retains whatever it held plus any
// partial growth — the caller is expected to kill and resubmit the job,
// which releases everything.
//
//dmp:hotpath
func (a *Adjuster) Adjust(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, targetMB int64) error {
	if targetMB < 0 {
		return cluster.ErrNegativeAmount
	}
	na := &ja.PerNode[i]
	cur := na.TotalMB()
	switch {
	case targetMB < cur:
		return shrinkTo(cl, ja, i, cur-targetMB)
	case targetMB > cur:
		return a.growBy(cl, ja, i, targetMB-cur)
	}
	return nil
}

// Adjust is the one-shot form of Adjuster.Adjust with the default lender
// order, kept for tests and callers outside the simulation loop.
func Adjust(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, targetMB int64) error {
	return NewAdjuster(nil).Adjust(cl, ja, i, targetMB)
}

// AdjustRanked is Adjust with a custom lender order for growth (used by
// the topology-aware configuration); nil means the default order.
func AdjustRanked(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, targetMB int64, ranker LenderRanker) error {
	return NewAdjuster(ranker).Adjust(cl, ja, i, targetMB)
}

// AdjustDomains is Adjust with growth confined to the given ledger shards
// (the job's frozen pressure-domain set, sorted ascending): the grow path
// borrows only from lenders in doms, preferring the compute node's own
// shard first, and reports ErrOutOfMemory when those domains are exhausted
// even if other domains still hold free memory. Strict confinement keeps a
// job's contention footprint inside its frozen domain set: it can neither
// read nor take memory outside that set. Shrinking releases existing
// leases, which by construction already lie inside doms.
//
//dmp:hotpath
func (a *Adjuster) AdjustDomains(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, targetMB int64, doms []int32) error {
	if targetMB < 0 {
		return cluster.ErrNegativeAmount
	}
	na := &ja.PerNode[i]
	cur := na.TotalMB()
	switch {
	case targetMB < cur:
		return shrinkTo(cl, ja, i, cur-targetMB)
	case targetMB > cur:
		return a.growByDomains(cl, ja, i, targetMB-cur, doms)
	}
	return nil
}

// growByDomains is growBy restricted to the doms shards: local memory
// first, then the borrower's home shard's lenders, then the remaining
// domains in ascending order. With a single domain covering the whole
// cluster it degenerates bit-exactly to growBy — the per-shard walk IS the
// global lender walk.
//
//dmp:hotpath
func (a *Adjuster) growByDomains(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, need int64, doms []int32) error {
	na := &ja.PerNode[i]
	// Local first.
	if free := cl.Node(na.Node).FreeMB(); free > 0 {
		take := minInt64(need, free)
		if err := ja.GrowLocal(cl, i, take); err != nil {
			return err
		}
		need -= take
	}
	if need == 0 {
		return nil
	}
	own := a.own[:0]
	for k := range ja.PerNode {
		own = append(own, ja.PerNode[k].Node)
	}
	a.own = own
	// Plan from the walks, then apply: the ledger must not change mid-walk.
	home := cl.ShardOf(na.Node)
	takes := a.takes[:0]
	rem := need
	scan := func(id cluster.NodeID, free int64) bool { //dmplint:ignore hotpath-alloc one closure per grow call so the same walk body serves the home shard and each remaining domain
		if containsNode(own, id) {
			return true
		}
		take := minInt64(rem, free)
		takes = append(takes, cluster.Lease{Lender: id, MB: take})
		rem -= take
		return rem > 0
	}
	cl.AscendShardLenders(home, scan)
	for _, d := range doms {
		if rem <= 0 {
			break
		}
		if int(d) == home {
			continue
		}
		cl.AscendShardLenders(int(d), scan)
	}
	a.takes = takes
	for _, t := range takes {
		if err := ja.GrowRemote(cl, i, t.Lender, t.MB); err != nil {
			return err
		}
		a.Tel.LeaseGrant(ja.Job, int(na.Node), int(t.Lender), t.MB)
	}
	if rem > 0 {
		// Partial growth is retained; the caller kills and resubmits, which
		// releases everything and re-places with a fresh domain set.
		return ErrOutOfMemory
	}
	return nil
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

//
//dmp:hotpath
func (a *Adjuster) growBy(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, need int64) error {
	na := &ja.PerNode[i]
	// Local first.
	if free := cl.Node(na.Node).FreeMB(); free > 0 {
		take := minInt64(need, free)
		if err := ja.GrowLocal(cl, i, take); err != nil {
			return err
		}
		need -= take
	}
	if need == 0 {
		return nil
	}
	// Borrow the rest in lender order, excluding the job's own compute
	// nodes (their free memory belongs to their local side).
	if a.ranker != nil {
		return a.growRanked(cl, ja, i, need)
	}
	own := a.own[:0]
	for k := range ja.PerNode {
		own = append(own, ja.PerNode[k].Node)
	}
	a.own = own
	// Plan from the index walk, then apply: the ledger must not change
	// mid-walk, and the walk stops as soon as the deficit is covered, so
	// the common first-lender-suffices case touches O(log N) nodes.
	takes := a.takes[:0]
	rem := need
	cl.AscendLenders(func(id cluster.NodeID, free int64) bool {
		if containsNode(own, id) {
			return true
		}
		take := minInt64(rem, free)
		takes = append(takes, cluster.Lease{Lender: id, MB: take})
		rem -= take
		return rem > 0
	})
	a.takes = takes
	for _, t := range takes {
		if err := ja.GrowRemote(cl, i, t.Lender, t.MB); err != nil {
			return err
		}
		a.Tel.LeaseGrant(ja.Job, int(na.Node), int(t.Lender), t.MB)
	}
	if rem > 0 {
		// Partial growth is retained, exactly as the pre-index grow loop
		// left it when the pool ran dry mid-iteration.
		return ErrOutOfMemory
	}
	return nil
}

// growRanked is the custom-ranker grow path, identical to the pre-index
// implementation apart from the reused exclusion map.
//
//dmp:hotpath
func (a *Adjuster) growRanked(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, need int64) error {
	na := &ja.PerNode[i]
	if a.exc == nil {
		a.exc = make(map[cluster.NodeID]bool, len(ja.PerNode))
	}
	for id := range a.exc {
		delete(a.exc, id)
	}
	for k := range ja.PerNode {
		a.exc[ja.PerNode[k].Node] = true
	}
	for _, lender := range a.ranker(cl, na.Node, a.exc) { //dmplint:ignore hotpath-reach ranker is the policy's pluggable lender-ordering strategy; both in-tree rankers reuse the arena's scratch slice
		take := minInt64(need, cl.Node(lender).FreeMB())
		if take == 0 {
			continue
		}
		if err := ja.GrowRemote(cl, i, lender, take); err != nil {
			return err
		}
		a.Tel.LeaseGrant(ja.Job, int(na.Node), int(lender), take)
		need -= take
		if need == 0 {
			return nil
		}
	}
	return ErrOutOfMemory
}
