package cluster

import (
	"math/bits"
	"sort"
)

// The full-rescan references the ledger indexes replaced. They live only in
// tests: the differential tests assert the indexes stay byte-identical to
// them after every ledger operation.

// idleComputeNodesRef is the pre-index reference implementation:
// a full rescan of the node slice. The differential tests assert the bitset
// stays byte-identical to it after every ledger operation.
func (c *Cluster) idleComputeNodesRef() []NodeID {
	var ids []NodeID
	for i := range c.nodes {
		if c.nodes[i].IsComputeAvailable() {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// idleIDs enumerates the idle bitsets shard by shard, each in ascending
// ID order: the bitset side of the differential against
// idleComputeNodesRef.
func (c *Cluster) idleIDs() []NodeID {
	var ids []NodeID
	for s := range c.shards {
		sh := &c.shards[s]
		for w, word := range sh.idle.bits {
			for ; word != 0; word &= word - 1 {
				ids = append(ids, NodeID(sh.base+w<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	return ids
}

// idleComputeSplitRef is the full-rescan reference for
// IdleComputeSplit; the differential tests compare against it after every
// ledger operation.
func (c *Cluster) idleComputeSplitRef() (normal, large int) {
	for i := range c.nodes {
		if !c.nodes[i].IsComputeAvailable() {
			continue
		}
		if c.nodes[i].CapacityMB > c.largeMB {
			large++
		} else {
			normal++
		}
	}
	return normal, large
}

// lendersByFreeDescRef is the pre-index reference implementation
// (rescan + sort per call). The differential tests assert the index walk
// returns byte-identical orderings to it for arbitrary op sequences.
func (c *Cluster) lendersByFreeDescRef(exclude map[NodeID]bool) []NodeID {
	var ids []NodeID
	for i := range c.nodes {
		id := NodeID(i)
		if exclude[id] {
			continue
		}
		if c.nodes[i].FreeMB() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := c.nodes[ids[a]].FreeMB(), c.nodes[ids[b]].FreeMB()
		if fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// freeOrderRef is the sort-based reference for every ordered walk: the IDs
// in [lo, hi) sorted by (free desc, ID asc), restricted to nodes with free
// memory when lendersOnly. AscendLenders is the whole range's lenders,
// AscendShardLenders one shard's lenders, and TopIdle a prefix of the whole
// range's compute-available nodes (topIdleRef).
func (c *Cluster) freeOrderRef(lo, hi NodeID, lendersOnly bool) []NodeID {
	var ids []NodeID
	for id := lo; id < hi; id++ {
		if !lendersOnly || c.nodes[id].FreeMB() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := c.nodes[ids[a]].FreeMB(), c.nodes[ids[b]].FreeMB()
		if fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// topIdleRef is the sort-based reference for TopIdle: every node in
// (free desc, ID asc) order, filtered by IsComputeAvailable, cut at k.
func (c *Cluster) topIdleRef(k int) []NodeID {
	var ids []NodeID
	for _, id := range c.freeOrderRef(0, NodeID(c.Len()), false) {
		if len(ids) < k && c.nodes[id].IsComputeAvailable() {
			ids = append(ids, id)
		}
	}
	return ids
}
