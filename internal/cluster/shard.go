package cluster

// This file implements the sharded ledger indexes: the node ID space is
// partitioned into contiguous shards, each with its own free-memory order,
// idle-compute bitset, and O(1) aggregate summary (free, lent, lender count,
// idle count). A mutation touches exactly one shard, and a flush (see
// index.go) is at most linear in its shard's size, which is why the default
// layout bounds shards at defaultShardNodes nodes. The placement/borrow scans
// consult the per-shard summaries first (the two-level lender index),
// entering — and so flushing — a shard only when its summary says it can
// contribute.
//
// Determinism is non-negotiable: the global lender order must stay
// bit-identical to the single-shard order — (free desc, node ID asc) — for
// every shard count. Global walks therefore run an S-way merge over the
// per-shard cursors using the exact same comparator; with one shard the
// merge degenerates to the plain slice scan, so shard count 1 IS the serial
// ledger. The shard-boundary differential tests assert identical orderings
// across shard counts for arbitrary operation sequences.

// shardIx is one shard's indexes and running aggregates.
type shardIx struct {
	base int // first node ID owned by this shard
	n    int // number of nodes owned

	free freeIndex
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

// refile moves the node at local index to its new free-memory key, keeping
// the shard's lender count in sync.
//
//dmp:hotpath
func (sh *shardIx) refile(local int32, newFree int64) {
	old := sh.free.key[local]
	if (old > 0) != (newFree > 0) {
		if newFree > 0 {
			sh.lenders++
		} else {
			sh.lenders--
		}
	}
	sh.free.update(local, newFree)
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
// index. It flushes the shard first. The ledger must not be mutated during
// the walk.
func (c *Cluster) AscendShardLenders(i int, yield func(id NodeID, free int64) bool) {
	sh := &c.shards[i]
	base := NodeID(sh.base)
	sh.free.ascend(func(local int32, free int64) bool {
		if free <= 0 {
			return false
		}
		return yield(base+NodeID(local), free) //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
	})
}

// ------------------------------------------------------------ merge walk

// ascendAll walks every shard's order in a single globally ordered pass:
// an S-way merge on (free desc, ID asc), the exact single-shard order.
// includeEmpty selects whether nodes with no free memory are visited
// (AscendFree) or pruned — per shard, the moment its head drops to zero,
// and whole shards up front when their summary says lenders == 0
// (AscendLenders). Every shard it enters is flushed
// first; a skipped shard stays dirty until a read needs it.
//
//dmp:hotpath
func (c *Cluster) ascendAll(includeEmpty bool, yield func(id NodeID, free int64) bool) {
	if len(c.shards) == 1 {
		sh := &c.shards[0]
		sh.free.ascend(func(local int32, free int64) bool {
			if !includeEmpty && free <= 0 {
				return false
			}
			return yield(NodeID(local), free) //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
		})
		return
	}

	its := c.mergeIts
	heapIdx := c.mergeHeap[:0]
	for i := range c.shards {
		sh := &c.shards[i]
		if !includeEmpty && sh.lenders == 0 {
			continue // two-level skip: summary proves no contribution
		}
		its[i].init(&sh.free)
		head, ok := its[i].next()
		if !ok {
			continue
		}
		if !includeEmpty && sh.free.key[head] <= 0 {
			continue
		}
		its[i].head = head
		heapIdx = append(heapIdx, int32(i))
		c.siftUp(heapIdx, len(heapIdx)-1)
	}

	for len(heapIdx) > 0 {
		i := heapIdx[0]
		sh := &c.shards[i]
		id := NodeID(sh.base) + NodeID(its[i].head)
		free := sh.free.key[its[i].head]
		if !yield(id, free) { //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
			break
		}
		// Advance shard i's iterator; prune it once it runs dry or (in
		// lender mode) its next head has nothing to lend — per-shard order
		// is free-descending, so everything after is empty too.
		head, ok := its[i].next()
		if ok && (includeEmpty || sh.free.key[head] > 0) {
			its[i].head = head
			c.siftDown(heapIdx, 0)
		} else {
			last := len(heapIdx) - 1
			heapIdx[0] = heapIdx[last]
			heapIdx = heapIdx[:last]
			if last > 0 {
				c.siftDown(heapIdx, 0)
			}
		}
	}
	c.mergeHeap = heapIdx[:0]
}

// mergeBefore reports whether shard a's head orders before shard b's head
// under the global (free desc, ID asc) comparator.
//
//dmp:hotpath
func (c *Cluster) mergeBefore(a, b int32) bool {
	sa, sb := &c.shards[a], &c.shards[b]
	fa := sa.free.key[c.mergeIts[a].head]
	fb := sb.free.key[c.mergeIts[b].head]
	if fa != fb {
		return fa > fb
	}
	return sa.base+int(c.mergeIts[a].head) < sb.base+int(c.mergeIts[b].head)
}

//dmp:hotpath
func (c *Cluster) siftUp(h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.mergeBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

//dmp:hotpath
func (c *Cluster) siftDown(h []int32, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && c.mergeBefore(h[l], h[best]) {
			best = l
		}
		if r < n && c.mergeBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
