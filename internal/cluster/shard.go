package cluster

// This file implements the sharded ledger indexes: the node ID space is
// partitioned into contiguous shards, each with its own lender tree,
// idle-compute bitset, and O(1) aggregate summary (free, lent, lender count,
// idle count). A mutation touches exactly one shard, which is what lets
// forks copy one shard at a time and disjoint-shard mutations proceed
// concurrently. The placement/borrow scans consult the per-shard summaries
// first (the two-level lender index), entering a shard only when its
// summary says it can contribute.
//
// Determinism is non-negotiable: the global lender order must stay
// bit-identical to the single-shard order — (free desc, node ID asc) — for
// every shard count. Lender keys pack the global node ID (see index.go), so
// one walk over every shard's root yields exactly that order, and shard
// count 1 IS the serial ledger. The shard-boundary differential tests
// assert identical orderings across shard counts for arbitrary operation
// sequences.

// shardIx is one shard's indexes and running aggregates.
type shardIx struct {
	base int // first node ID owned by this shard
	n    int // number of nodes owned

	tree []uint64 // the lender tree over the shard's keys (see index.go)
	idle idleSet

	freeMB  int64 // sum of FreeMB over the shard's nodes
	lentMB  int64 // sum of LentMB over the shard's nodes
	lenders int   // nodes with FreeMB > 0

	// Capacity-class split of the shard's idle set (normal vs large, see
	// Cluster.largeMB). Kept per shard — like every other running
	// aggregate — so that ledger mutations confined to disjoint shards
	// touch disjoint memory and can proceed concurrently; the cluster-wide
	// getters sum over shards (integer-exact, O(S)).
	idleNormal int
	idleLarge  int
}

// ShardSummary is the O(1) top level of the two-level lender index: enough
// aggregate state to decide whether a shard can contribute lenders or idle
// compute nodes without touching its free-memory order or bitset.
type ShardSummary struct {
	Base    NodeID // first node ID in the shard
	Nodes   int    // nodes owned by the shard
	Idle    int    // compute-available nodes
	Lenders int    // nodes with free memory to lend
	FreeMB  int64  // total unallocated memory
	LentMB  int64  // total memory lent to remote jobs
}

// ShardCount returns the number of ledger shards (≥ 1).
func (c *Cluster) ShardCount() int { return len(c.shards) }

// ShardOf returns the index of the shard owning node id.
//
//dmp:hotpath
func (c *Cluster) ShardOf(id NodeID) int { return int(id) / c.shardSize }

// Shard returns shard i's aggregate summary in O(1).
func (c *Cluster) Shard(i int) ShardSummary {
	sh := &c.shards[i]
	return ShardSummary{
		Base:    NodeID(sh.base),
		Nodes:   sh.n,
		Idle:    sh.idle.count,
		Lenders: sh.lenders,
		FreeMB:  sh.freeMB,
		LentMB:  sh.lentMB,
	}
}

// AscendShardLenders walks shard i's nodes with free memory in
// (free desc, ID asc) order — the second level of the two-level lender
// index — stopping when yield returns false. The ledger must not be
// mutated during the walk.
func (c *Cluster) AscendShardLenders(i int, yield func(id NodeID, free int64) bool) {
	h := c.front[:0]
	if k := c.shards[i].tree[1]; k > 0 {
		h = append(h, subtree{k, int32(i), 1})
	}
	c.walk(h, yield)
}

// AscendLenders walks the nodes with free memory in (free desc, ID asc)
// order without materialising a slice, stopping when yield returns false.
// Consumers that only need lenders until a deficit is covered use this to
// touch O(answer) nodes instead of ranking the whole cluster. The walk
// starts from every shard root with a lender, so a shard whose summary
// shows none is never entered. The ledger must not be mutated during the
// walk.
//
//dmp:hotpath
func (c *Cluster) AscendLenders(yield func(id NodeID, free int64) bool) {
	h := c.front[:0]
	for i := range c.shards {
		if k := c.shards[i].tree[1]; k > 0 {
			h = append(h, subtree{k, int32(i), 1})
		}
	}
	c.walk(h, yield)
}
