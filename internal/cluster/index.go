package cluster

import (
	"math/bits"
	"slices"
)

// This file implements the incrementally maintained indexes that replace the
// full-cluster rescans on the simulator's hot paths:
//
//   - freeIndex: one shard's nodes kept in (free memory descending, node ID
//     ascending) order — exactly the order the lender ranking and the
//     static-placement candidate sort used to produce with a fresh sort per
//     call. The ledger refiles nodes far more often than it reads them in
//     order (the dynamic policy resizes every running job at each update
//     interval), so a refile only records the node's new key and marks it
//     dirty; the next ordered read flushes the shard, sorting the k dirty
//     nodes and merging them back into the clean ones within the window
//     of positions they leave and enter. Walks are slice scans.
//   - idleSet: a bitset of compute-available nodes maintained by
//     StartJob/EndJob and by the lending operations (lending more than half
//     a node's capacity flips it to a memory node), making the
//     idle-compute-count check O(1) and enumeration O(N/64).
//
// Determinism matters more than speed here: a flush leaves the order equal
// to the total (free desc, ID asc) order over the current keys, whatever
// the refile history, so every walk depends only on the ledger state. The
// reference implementations the indexes replaced live in ref_test.go
// (lendersByFreeDescRef, idleComputeNodesRef, idleComputeSplitRef), and the
// differential tests assert byte-identical orderings against them.

// freeIndex orders one shard's dense local index space [0, len(key)). All
// nodes are always present. The owning shard translates local indices to
// global node IDs by adding its base; within a shard local order and global
// ID order coincide, so the comparator below still realises
// (free desc, ID asc).
//
// key is always exact; filed is the key each node had at the last flush,
// and order is sorted by (filed desc, index asc) at all times. A clean node
// has filed == key, so the clean entries are in comparator order, while a
// dirty node sits at its stale position until the next flush. dirty lists
// the marked nodes, each once. A shard shared with a fork is always clean
// (Fork flushes first), so a flush never writes an array another fork
// reads.
type freeIndex struct {
	key   []int64 // the node's free MB
	filed []int64 // the free MB the node is positioned under in order
	order []int32 // local indices by (filed desc, index asc)
	mark  []bool  // mark[n]: n was refiled since the last flush
	dirty []int32 // the marked nodes; scratch, never shared across forks
}

// init files every node under its initial free memory.
//
//dmp:cowsafe
func (ix *freeIndex) init(frees []int64) {
	n := len(frees)
	ix.key = frees
	ix.filed = append([]int64(nil), frees...)
	ix.order = make([]int32, n)
	ix.mark = make([]bool, n)
	for i := range ix.order {
		ix.order[i] = int32(i)
	}
	slices.SortFunc(ix.order, ix.cmp)
}

// cmp orders node a before node b when it has more free memory, ties by
// ascending ID — the exact comparator of the retired sort.
func (ix *freeIndex) cmp(a, b int32) int {
	if ka, kb := ix.key[a], ix.key[b]; ka != kb {
		if ka > kb {
			return -1
		}
		return 1
	}
	return int(a - b)
}

// filedBefore reports whether node a is positioned before node b in order.
func (ix *freeIndex) filedBefore(a, b int32) bool {
	fa, fb := ix.filed[a], ix.filed[b]
	return fa > fb || fa == fb && a < b
}

// rank returns how many entries of order are positioned strictly before
// the pair (free, n): binary search over the filed pairs, which order
// keeps sorted, dirty nodes included.
func (ix *freeIndex) rank(free int64, n int32) int {
	o := ix.order
	lo, hi := 0, len(o)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := o[m]; ix.filed[x] > free || ix.filed[x] == free && x < n {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// update refiles local node n under its new free-memory key in O(1): the
// node is only marked, and the next ordered read repositions it. Callers
// hold shard ownership: every call chain starts at a Cluster method that
// privatised the shard first (own → materialize → thaw).
//
//dmp:cowsafe
func (ix *freeIndex) update(n int32, newFree int64) {
	if ix.key[n] == newFree {
		return
	}
	ix.key[n] = newFree
	if !ix.mark[n] {
		ix.mark[n] = true
		ix.dirty = append(ix.dirty, n)
	}
}

// flush restores order to the exact comparator order. Only the window
// [lo, hi) can change: it spans every dirty node's stale position and
// every position a dirty node moves to, and the clean nodes outside it
// already sit where the result puts them. Within the window the clean
// nodes are compacted (keeping their relative order, which is already
// correct), the k dirty nodes are sorted, and the two runs are merged from
// the back: O(k log k + log n + window). A clean shard returns at once
// without writing, which is what makes ordered reads of a fork-shared
// shard safe.
//
//dmp:cowsafe
//dmp:hotpath
func (ix *freeIndex) flush() {
	d := ix.dirty
	if len(d) == 0 {
		return
	}
	slices.SortFunc(d, ix.cmp)
	first, last := d[0], d[0] // the dirty nodes positioned first and last
	for _, n := range d[1:] {
		if ix.filedBefore(n, first) {
			first = n
		}
		if ix.filedBefore(last, n) {
			last = n
		}
	}
	top, bottom := d[0], d[len(d)-1]
	lo := min(ix.rank(ix.filed[first], first), ix.rank(ix.key[top], top))
	hi := max(ix.rank(ix.filed[last], last)+1, ix.rank(ix.key[bottom], bottom))

	o, mark := ix.order[lo:hi], ix.mark
	w := 0
	for _, n := range o {
		if !mark[n] {
			o[w] = n
			w++
		}
	}
	i, j := w-1, len(d)-1
	for k := len(o) - 1; j >= 0; k-- {
		if i >= 0 && ix.cmp(d[j], o[i]) < 0 {
			o[k] = o[i]
			i--
		} else {
			o[k] = d[j]
			j--
		}
	}
	for _, n := range d {
		ix.filed[n] = ix.key[n]
		ix.mark[n] = false
	}
	ix.dirty = d[:0]
}

// ascend flushes the shard and walks all nodes in (free desc, local index
// asc) order, stopping early when yield returns false. The ledger must not
// be mutated during the walk.
func (ix *freeIndex) ascend(yield func(local int32, free int64) bool) {
	ix.flush()
	for _, n := range ix.order {
		if !yield(n, ix.key[n]) { //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
			return
		}
	}
}

// freeIter is a pull-based cursor over one shard's order, the building
// block of the cross-shard merge walk. Unlike ascend it yields one node per
// next call, so an S-way merge can interleave shards while preserving the
// global (free desc, ID asc) order. The ledger must not be mutated
// mid-iteration.
type freeIter struct {
	order []int32
	pos   int
	head  int32 // most recently yielded node (maintained by the merge)
}

// init flushes the shard and points the cursor at its first node.
//
//dmp:hotpath
func (it *freeIter) init(ix *freeIndex) {
	ix.flush()
	it.order = ix.order
	it.pos = 0
}

// next yields the next local node index in (free desc, index asc) order.
//
//dmp:hotpath
func (it *freeIter) next() (int32, bool) {
	if it.pos == len(it.order) {
		return 0, false
	}
	it.pos++
	return it.order[it.pos-1], true
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
