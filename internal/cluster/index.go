package cluster

import "math/bits"

// This file implements the incrementally maintained indexes that replace the
// full-cluster rescans on the simulator's hot paths:
//
//   - freeIndex: a treap over all nodes keyed by (free memory descending,
//     node ID ascending) — exactly the order LendersByFreeDesc and the
//     static-placement candidate sort used to produce with a fresh sort per
//     call. Every ledger operation that changes a node's free memory
//     repositions that one node in O(log N) expected time, so ranking
//     lenders becomes an in-order walk instead of an O(N log N) rebuild.
//   - idleSet: a bitset of compute-available nodes maintained by
//     StartJob/EndJob and by the lending operations (lending more than half
//     a node's capacity flips it to a memory node), making the
//     idle-compute-count check O(1) and enumeration O(N/64).
//
// Determinism matters more than speed here: the treap's heap priorities are
// a fixed hash of the node ID, so the tree shape — and therefore every
// traversal — depends only on the ledger state, never on insertion history
// or randomness. The reference implementations the indexes replaced live in
// ref_test.go (lendersByFreeDescRef, idleComputeNodesRef,
// idleComputeSplitRef), and the differential tests assert byte-identical
// orderings against them.

const nilIdx = int32(-1)

// splitmix64 is the fixed per-node priority hash (Steele et al., the
// SplitMix64 finaliser). Any fixed bijective mixer works; this one has no
// short cycles and is cheap.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// freeIndex is a treap over one shard's dense local index space
// [0, len(key)). All nodes are always present; a node's key is the
// free-memory value it was last filed under. Storage is flat arrays indexed
// by the shard-local node index, so the index allocates nothing after
// construction. The owning shard translates local indices to global node
// IDs by adding its base; within a shard local order and global ID order
// coincide, so the comparator below still realises (free desc, ID asc).
type freeIndex struct {
	key   []int64 // free MB the node is currently filed under
	prio  []uint64
	left  []int32
	right []int32
	root  int32
	stack []int32 // iterative-traversal scratch, reused across walks
}

// init builds the treap. base is the owning shard's first global node ID:
// priorities hash the global ID, so the tree shape for a node set depends
// only on which nodes it holds, never on the shard layout history.
//
//dmp:cowsafe
func (ix *freeIndex) init(frees []int64, base int) {
	n := len(frees)
	ix.key = make([]int64, n)
	ix.prio = make([]uint64, n)
	ix.left = make([]int32, n)
	ix.right = make([]int32, n)
	ix.root = nilIdx
	for i := 0; i < n; i++ {
		ix.prio[i] = splitmix64(uint64(base+i) + 1)
		ix.key[i] = frees[i]
	}
	for i := 0; i < n; i++ {
		ix.root = ix.insertAt(ix.root, int32(i))
	}
}

// before reports whether node a orders before node b: larger free memory
// first, ties by ascending ID — the exact comparator of the retired sort.
func (ix *freeIndex) before(a, b int32) bool {
	if ix.key[a] != ix.key[b] {
		return ix.key[a] > ix.key[b]
	}
	return a < b
}

// insertAt, removeAt, and merge are the treap's structural mutators. They
// write the key/left/right arrays, which a cluster fork shares copy-on-write
// until thawed; every call chain starts at a Cluster method that privatised
// the shard first (own → materialize → thaw), so writing here is safe.
//
//dmp:cowsafe
func (ix *freeIndex) insertAt(root, n int32) int32 {
	if root == nilIdx {
		ix.left[n], ix.right[n] = nilIdx, nilIdx
		return n
	}
	if ix.before(n, root) {
		l := ix.insertAt(ix.left[root], n)
		ix.left[root] = l
		if ix.prio[l] > ix.prio[root] { // rotate right
			ix.left[root] = ix.right[l]
			ix.right[l] = root
			return l
		}
		return root
	}
	r := ix.insertAt(ix.right[root], n)
	ix.right[root] = r
	if ix.prio[r] > ix.prio[root] { // rotate left
		ix.right[root] = ix.left[r]
		ix.left[r] = root
		return r
	}
	return root
}

//dmp:cowsafe
func (ix *freeIndex) removeAt(root, n int32) int32 {
	if root == nilIdx {
		panic("cluster: freeIndex: removing a node that is not filed")
	}
	if root == n {
		return ix.merge(ix.left[n], ix.right[n])
	}
	if ix.before(n, root) {
		ix.left[root] = ix.removeAt(ix.left[root], n)
	} else {
		ix.right[root] = ix.removeAt(ix.right[root], n)
	}
	return root
}

//dmp:cowsafe
func (ix *freeIndex) merge(l, r int32) int32 {
	if l == nilIdx {
		return r
	}
	if r == nilIdx {
		return l
	}
	if ix.prio[l] > ix.prio[r] {
		ix.right[l] = ix.merge(ix.right[l], r)
		return l
	}
	ix.left[r] = ix.merge(l, ix.left[r])
	return r
}

// update refiles local node n under its new free-memory key: O(log N/S)
// expected in the shard size. Callers hold shard ownership (see insertAt).
//
//dmp:cowsafe
func (ix *freeIndex) update(n int32, newFree int64) {
	if ix.key[n] == newFree {
		return
	}
	ix.root = ix.removeAt(ix.root, n)
	ix.key[n] = newFree
	ix.root = ix.insertAt(ix.root, n)
}

// ascend walks all nodes in (free desc, local index asc) order, stopping
// early when yield returns false. The walk is allocation-free after the
// stack scratch has grown once. The ledger must not be mutated during the
// walk.
func (ix *freeIndex) ascend(yield func(local int32, free int64) bool) {
	st := ix.stack[:0]
	cur := ix.root
	for cur != nilIdx || len(st) > 0 {
		for cur != nilIdx {
			st = append(st, cur)
			cur = ix.left[cur]
		}
		cur = st[len(st)-1]
		st = st[:len(st)-1]
		if !yield(cur, ix.key[cur]) { //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
			break
		}
		cur = ix.right[cur]
	}
	ix.stack = st[:0]
}

// freeIter is a pull-based in-order iterator over one shard's treap, the
// building block of the cross-shard merge walk. Unlike ascend it yields one
// node per next call, so an S-way merge can interleave shards while
// preserving the global (free desc, ID asc) order. The stack scratch
// persists across walks; the ledger must not be mutated mid-iteration.
type freeIter struct {
	ix    *freeIndex
	stack []int32
	head  int32 // most recently yielded node (maintained by the merge)
}

// init points the iterator at the treap's in-order start.
//
//dmp:hotpath
func (it *freeIter) init(ix *freeIndex) {
	it.ix = ix
	st := it.stack[:0]
	for cur := ix.root; cur != nilIdx; cur = ix.left[cur] {
		st = append(st, cur)
	}
	it.stack = st
}

// next yields the next local node index in (free desc, index asc) order.
//
//dmp:hotpath
func (it *freeIter) next() (int32, bool) {
	st := it.stack
	if len(st) == 0 {
		return 0, false
	}
	n := st[len(st)-1]
	st = st[:len(st)-1]
	for cur := it.ix.right[n]; cur != nilIdx; cur = it.ix.left[cur] {
		st = append(st, cur)
	}
	it.stack = st
	return n, true
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

// appendIDs appends the set members to dst in ascending ID order, offset by
// the owning shard's base.
func (s *idleSet) appendIDs(dst []NodeID, base int) []NodeID {
	for w, word := range s.bits {
		wbase := base + w<<6
		for word != 0 {
			dst = append(dst, NodeID(wbase+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
