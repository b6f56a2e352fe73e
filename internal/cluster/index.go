package cluster

import (
	"fmt"
	"math/bits"
)

// This file implements the incrementally maintained indexes that replace the
// full-cluster rescans on the simulator's hot paths:
//
//   - the lender tree: one implicit max tree per shard (shardIx.tree) over
//     packed keys that order the cluster's nodes by (free memory
//     descending, node ID ascending) — exactly the order the lender ranking
//     and the static-placement candidate sort used to produce with a fresh
//     sort per call. A refile rewrites one leaf and the ancestors whose
//     maximum it changes, and an ordered read (walk) pops the best of a few
//     subtrees at a time, so a read writes nothing and a short read touches
//     O(answer · depth) entries.
//   - idleSet: a bitset of compute-available nodes maintained by
//     StartJob/EndJob and by the lending operations (lending more than half
//     a node's capacity flips it to a memory node), making the
//     idle-compute-count check O(1) and enumeration O(N/64).
//
// Determinism matters more than speed here: every read yields exactly the
// total (free desc, ID asc) order over the current ledger, whatever the
// refile history. The reference implementations the indexes replaced live
// in ref_test.go (lendersByFreeDescRef, idleComputeNodesRef,
// idleComputeSplitRef), and the differential tests assert byte-identical
// orderings against them.

// A node's key is free << idBits | (idMask − id), or 0 when it has no free
// memory: keys order nodes by (free desc, ID asc), every lender's key is
// nonzero and unique across the cluster, and free is key >> idBits.
//
// A shard of n nodes keeps its keys in tree, 2n words: leaf n+i holds local
// node i's key, and every inner node p in [1, n) holds the larger of its
// children 2p and 2p+1, so tree[1] is the shard's best key.

// packRoom reports whether a free-memory value up to bound fits a key
// beside the ID bits of an n-node cluster, and if not, why.
func packRoom(bound int64, n int) error {
	idx := bits.Len(uint(n - 1))
	if bits.Len64(uint64(bound)) > 64-idx {
		return fmt.Errorf("%d MB needs %d bits, and a %d-node ledger leaves %d beside its %d ID bits",
			bound, bits.Len64(uint64(bound)), n, 64-idx, idx)
	}
	return nil
}

// key packs node id's free memory into its lender-tree key.
//
//dmp:hotpath
func (c *Cluster) key(id int, free int64) uint64 {
	if free <= 0 {
		return 0
	}
	return uint64(free)<<c.idBits | (c.idMask - uint64(id))
}

// initTree builds the shard's tree over its nodes' current free memory.
// The array is freshly allocated, so no fork can share it yet.
//
//dmp:cowsafe
func (c *Cluster) initTree(sh *shardIx) {
	sh.tree = make([]uint64, 2*sh.n)
	for i := 0; i < sh.n; i++ {
		sh.tree[sh.n+i] = c.key(sh.base+i, c.nodes[sh.base+i].FreeMB())
	}
	for p := sh.n - 1; p > 0; p-- {
		sh.tree[p] = max(sh.tree[2*p], sh.tree[2*p+1])
	}
}

// refile files local node i under key k, keeping the shard's lender count
// in sync: it rewrites the leaf, then each ancestor up to the first whose
// maximum does not change. Callers hold shard ownership: every call chain
// starts at a Cluster method that privatised the shard first (own →
// materialize → thaw).
//
//dmp:cowsafe
//dmp:hotpath
func (sh *shardIx) refile(i int32, k uint64) {
	p := sh.n + int(i)
	old := sh.tree[p]
	if old == k {
		return
	}
	if (old > 0) != (k > 0) {
		if k > 0 {
			sh.lenders++
		} else {
			sh.lenders--
		}
	}
	sh.tree[p] = k
	for ; p > 1; p >>= 1 {
		m := max(sh.tree[p], sh.tree[p^1])
		if sh.tree[p>>1] == m {
			return
		}
		sh.tree[p>>1] = m
	}
}

// subtree is one entry of a walk's frontier: tree node pos of shard shard,
// whose key is the largest in its subtree.
type subtree struct {
	key   uint64
	shard int32
	pos   int32
}

// walk yields, in (free desc, ID asc) order, every lender below the
// frontier h, which the caller seeds with shard roots, stopping when yield
// returns false. h is a max-heap of disjoint subtrees by key: each step
// takes the best, whose key names its leaf, yields that leaf, and files in
// its place the sibling of every node on the path from the leaf up to the
// subtree's root, so the frontier always holds the next lender. It writes
// only h, the cluster's scratch, so a walk over a shard shared with a fork
// is safe, and a warm walk allocates nothing. The ledger must not be
// mutated during the walk.
//
//dmp:hotpath
func (c *Cluster) walk(h frontier, yield func(id NodeID, free int64) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 0 {
		top := h[0]
		sh := &c.shards[top.shard]
		t := sh.tree
		id := int(c.idMask - top.key&c.idMask)
		leaf := sh.n + id - sh.base
		filled := false // whether h[0] holds a sibling yet
		// Top down: the larger subtrees, whose keys are likelier to lead
		// the frontier, take the popped slot first.
		for d := bits.Len(uint(leaf)) - bits.Len(uint(top.pos)); d > 0; d-- {
			p := leaf >> (d - 1)
			k := t[p^1]
			if k == 0 {
				continue
			}
			// The first sibling takes the popped entry's slot.
			if e := (subtree{k, top.shard, int32(p ^ 1)}); filled {
				h = append(h, e)
				h.up(len(h) - 1)
			} else {
				h[0], filled = e, true
				h.down(0)
			}
		}
		if !filled {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			h.down(0)
		}
		if !yield(NodeID(id), int64(top.key>>c.idBits)) { //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
			break
		}
	}
	c.front = h[:0]
}

// frontier is a max-heap of subtrees by key; keys of distinct lenders
// differ, so the order is total.
type frontier []subtree

//dmp:hotpath
func (h frontier) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key >= e.key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

//dmp:hotpath
func (h frontier) down(i int) {
	if i >= len(h) {
		return
	}
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].key > h[c].key {
			c = r
		}
		if h[c].key <= e.key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// idleSet tracks compute-available nodes as a bitset with a running count.
type idleSet struct {
	bits  []uint64
	count int
}

func (s *idleSet) init(n int) {
	s.bits = make([]uint64, (n+63)/64)
	s.count = 0
}

// setTo files node i's availability bit and returns the membership delta
// (+1 joined, −1 left, 0 unchanged) so callers can maintain derived counts —
// the per-capacity-class split feeding the O(1) resource summary — without a
// second bit probe. The bits array is CoW-shared after a fork; callers reach
// here only through Cluster methods that privatised the shard first.
//
//dmp:cowsafe
func (s *idleSet) setTo(i int, avail bool) int {
	w, mask := i>>6, uint64(1)<<uint(i&63)
	has := s.bits[w]&mask != 0
	if avail == has {
		return 0
	}
	if avail {
		s.bits[w] |= mask
		s.count++
		return 1
	}
	s.bits[w] &^= mask
	s.count--
	return -1
}
