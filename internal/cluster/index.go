package cluster

import (
	"fmt"
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
//     dirty. An ordered read (freeIter) merges the clean entries with the
//     best few dirty nodes, selected by packed key in one pass over the
//     dirty list, and so serves a short walk without repairing the order.
//     The order is repaired by a flush — sorting the k dirty nodes (as
//     packed integer keys) and merging them back into the clean ones within
//     the window of positions they leave and enter — only when a read
//     outlasts its dirty buffer, when more than 1/flushShare of the shard is
//     dirty at a read, and before a Fork.
//   - idleSet: a bitset of compute-available nodes maintained by
//     StartJob/EndJob and by the lending operations (lending more than half
//     a node's capacity flips it to a memory node), making the
//     idle-compute-count check O(1) and enumeration O(N/64).
//
// Determinism matters more than speed here: every read yields exactly the
// total (free desc, ID asc) order over the current keys, and a flush leaves
// the slice equal to it, whatever the refile history, so every walk
// depends only on the ledger state. The
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
// the marked nodes, each once, and a read leaves at most 1/flushShare of
// the shard on it. A shard shared with a fork is always clean
// (Fork flushes first), so a flush never writes an array another fork
// reads.
type freeIndex struct {
	key   []int64 // the node's free MB
	filed []int64 // the free MB the node is positioned under in order
	order []int32 // local indices by (filed desc, index asc)
	mark  []bool  // mark[n]: n was refiled since the last flush
	dirty []int32 // the marked nodes; scratch, never shared across forks

	// The flush sorts each dirty node n as one packed integer,
	// (bound − key[n]) << idxBits | n: ascending packed order is
	// (free desc, index asc). bound is the shard's largest capacity, so no
	// free value exceeds it, and idxBits holds every local index.
	bound   int64
	idxBits uint
}

// packRoom reports whether every (bound − free, local index) pair of a
// shard of n nodes whose capacities are at most bound fits one uint64, and
// if not, why.
func packRoom(bound int64, n int) error {
	idx := bits.Len(uint(n - 1))
	if bits.Len64(uint64(bound)) > 64-idx {
		return fmt.Errorf("%d MB needs %d bits, and a %d-node ledger shard leaves %d beside its %d index bits",
			bound, bits.Len64(uint64(bound)), n, 64-idx, idx)
	}
	return nil
}

// init files every node under its initial free memory, which is its
// capacity: frees' maximum bounds every later free value.
//
//dmp:cowsafe
func (ix *freeIndex) init(frees []int64) {
	n := len(frees)
	ix.bound = slices.Max(frees)
	if err := packRoom(ix.bound, n); err != nil {
		panic("cluster: node capacity " + err.Error())
	}
	ix.idxBits = uint(bits.Len(uint(n - 1)))
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

// pack is node n's flush sort key: ascending pack order is the cmp order.
//
//dmp:hotpath
func (ix *freeIndex) pack(n int32) uint64 {
	return uint64(ix.bound-ix.key[n])<<ix.idxBits | uint64(n)
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
// node is only marked, and ordered reads merge it in at its new key until
// a flush repositions it. Callers
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
// the back: O(k log k + log n + window). The sort and the merge compare
// packed integer keys (see pack), the sort's held in keys, the owning
// cluster's scratch: machine words, not comparator calls. A clean shard
// returns at once without writing, which is what makes ordered reads of a
// fork-shared shard safe.
//
//dmp:cowsafe
//dmp:hotpath
func (ix *freeIndex) flush(keys *[]uint64) {
	d := ix.dirty
	if len(d) == 0 {
		return
	}
	packed := (*keys)[:0]
	for _, n := range d {
		packed = append(packed, ix.pack(n))
	}
	slices.Sort(packed)
	mask := uint64(1)<<ix.idxBits - 1
	for i, k := range packed {
		d[i] = int32(k & mask)
	}
	*keys = packed
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
		if i >= 0 && packed[j] < ix.pack(o[i]) {
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

// readBuf is how many dirty nodes an ordered read merges into the clean
// order before it must flush: a borrow walk reads about four lenders, so
// eight covers nearly every read.
const readBuf = 8

// flushShare bounds the dirt a read tolerates: a read flushes first once
// more than 1/flushShare of the shard is dirty, so the marked entries a
// read skips stay bounded and a flush's sort stays cheap.
const flushShare = 2

// ascend walks all of the shard's nodes in (free desc, local index asc)
// order, stopping early when yield returns false. The ledger must not be
// mutated during the walk.
func (ix *freeIndex) ascend(keys *[]uint64, yield func(local int32, free int64) bool) {
	var it freeIter
	it.init(ix, keys)
	for n, ok := it.next(); ok; n, ok = it.next() {
		if !yield(n, ix.key[n]) { //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
			return
		}
	}
}

// freeIter is a pull cursor over one shard's exact (free desc, index asc)
// order: every ordered read, ascend and each cursor of the cross-shard
// merge walk, runs through it. The order is total, so its prefix is the
// merge of two streams: the clean entries of order (skipping the marked
// ones, which sit at stale positions) and the dirty nodes, of which init
// selects the readBuf best by packed key in one pass over the dirty list.
// A short read is served from the two without a flush. A read that
// outlasts the buffer while more dirty nodes remain flushes and resumes
// right after the last node it yielded; a read that finds more than
// 1/flushShare of the shard dirty flushes first. The ledger must not be
// mutated mid-iteration.
type freeIter struct {
	ix   *freeIndex
	keys *[]uint64 // the flush's sort scratch
	pos  int       // next position of ix.order to consider

	buf    [readBuf]uint64 // the best dirty nodes' packed keys, ascending
	bi, bn int             // buf[bi:bn] are still to be yielded
	more   bool            // dirty nodes outside buf remain

	head int32 // the node most recently yielded
}

// init points the cursor at the shard's first node, flushing the shard
// first when its dirty set passes the bound. Its pass over the dirty list
// also drops the nodes whose key is back at the key they are filed under:
// they already sit where the order puts them. That writes only a shard
// with dirty nodes, which no fork shares.
//
//dmp:cowsafe
//dmp:hotpath
func (it *freeIter) init(ix *freeIndex, keys *[]uint64) {
	it.ix, it.keys, it.pos = ix, keys, 0
	it.bi, it.bn, it.more = 0, 0, false
	if len(ix.dirty) == 0 {
		return
	}
	if len(ix.dirty) > len(ix.key)/flushShare {
		ix.flush(keys)
		return
	}
	dirty := ix.dirty[:0]
	for _, n := range ix.dirty {
		if ix.key[n] == ix.filed[n] {
			ix.mark[n] = false
			continue
		}
		dirty = append(dirty, n)
		p, i := ix.pack(n), it.bn
		if i == readBuf {
			it.more = true
			if p > it.buf[readBuf-1] {
				continue
			}
			i-- // the last held node drops out
		} else {
			it.bn++
		}
		for ; i > 0 && it.buf[i-1] > p; i-- {
			it.buf[i] = it.buf[i-1]
		}
		it.buf[i] = p
	}
	ix.dirty = dirty
}

// resume is called once the buffer is spent while unbuffered dirty nodes
// remain, any of which may come next: it flushes the shard, which makes
// the whole order exact, and points the cursor right after head, at its
// rank.
//
//dmp:hotpath
func (it *freeIter) resume() {
	ix := it.ix
	ix.flush(it.keys)
	it.more = false
	it.pos = ix.rank(ix.key[it.head], it.head) + 1
}

// next yields the next local node index in (free desc, index asc) order.
//
//dmp:hotpath
func (it *freeIter) next() (int32, bool) {
	ix := it.ix
	o := ix.order
	for it.pos < len(o) && ix.mark[o[it.pos]] {
		it.pos++
	}
	if it.bi == it.bn && it.more {
		it.resume()
	}
	if it.bi < it.bn {
		d := it.buf[it.bi]
		if it.pos == len(o) || d < ix.pack(o[it.pos]) {
			it.bi++
			it.head = int32(d & (1<<ix.idxBits - 1))
			return it.head, true
		}
	}
	if it.pos == len(o) {
		return 0, false
	}
	it.head = o[it.pos]
	it.pos++
	return it.head, true
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
