// Package cluster models an HPC cluster whose node memory can be
// disaggregated: any node may lend part of its DRAM to jobs running on other
// nodes, forming a system-wide memory pool.
//
// The model follows Zacarias et al. (ICPADS'21 / SC-W'23):
//
//   - Node allocation is exclusive: a node runs at most one job, which owns
//     all of the node's cores.
//   - A node may lend free memory to remote jobs. While the total it has
//     lent is at most half of its capacity it may still start new jobs;
//     beyond that it temporarily becomes a memory node that can lend but not
//     compute.
//   - All quantities are tracked in MB.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node within a Cluster (dense, 0-based).
type NodeID int

// NoJob marks a node as idle.
const NoJob = -1

// Node is the per-node ledger. All fields are maintained by Cluster methods;
// callers must treat them as read-only.
type Node struct {
	ID         NodeID
	Cores      int
	CapacityMB int64 // physical DRAM on the node

	LocalMB    int64 // memory allocated to the job running on this node
	LentMB     int64 // memory lent to jobs running on other nodes
	RunningJob int   // job occupying this node's cores, or NoJob
}

// FreeMB returns the node's unallocated physical memory.
func (n *Node) FreeMB() int64 { return n.CapacityMB - n.LocalMB - n.LentMB }

// IsComputeAvailable reports whether the node can start a new job: it must
// be idle and must not have lent more than half its capacity.
func (n *Node) IsComputeAvailable() bool {
	return n.RunningJob == NoJob && n.LentMB <= n.CapacityMB/2
}

// IsMemoryNode reports whether the node has lent more than half its capacity
// and is therefore temporarily compute-unavailable.
func (n *Node) IsMemoryNode() bool { return n.LentMB > n.CapacityMB/2 }

// Errors returned by ledger operations.
var (
	ErrInsufficientMemory = errors.New("cluster: insufficient free memory")
	ErrNodeBusy           = errors.New("cluster: node already running a job")
	ErrNodeIdle           = errors.New("cluster: node is not running a job")
	ErrNegativeAmount     = errors.New("cluster: negative memory amount")
	ErrOverRelease        = errors.New("cluster: releasing more than allocated")
)

// Cluster owns the node ledgers and enforces the accounting invariants.
//
// Alongside the flat ledger it maintains incremental indexes (see index.go):
// a lazily repaired free-memory order, a compute-available bitset, a static
// capacity ordering, and O(1) running aggregates. Every mutating method
// keeps them in sync, so the placement and dynamic-adjustment hot paths read
// them instead of rescanning the node slice.
type Cluster struct {
	nodes []Node

	// The node ID space is partitioned into contiguous shards (see
	// shard.go), each with its own free-memory order, idle bitset, and
	// aggregate summary. shardSize is the owned range of every shard but
	// the last. Every walk is identical for every shard count; with one
	// shard the merge walk is a plain slice scan.
	shards    []shardIx
	shardSize int
	mergeIts  []freeIter // per-shard merge iterators, persistent scratch
	mergeHeap []int32    // merge-heap scratch (shard indices)

	capOrder []NodeID // node IDs sorted by (CapacityMB asc, ID asc); immutable

	// All mutable running aggregates (free, lent, idle counts, idle
	// capacity-class split) live on the shards; the cluster-level getters
	// sum over them in O(S). Only capTotal (immutable), busy (never
	// touched by memory-only operations) and largeMB (immutable) stay
	// global — this is what lets disjoint-shard memory adjustments run
	// concurrently without sharing a single counter.
	capTotal int64
	busy     int

	// largeMB is the capacity-class threshold: a node with
	// CapacityMB > largeMB is "large" in the idle-split summary.
	largeMB int64

	idleBuf []NodeID // scratch returned by IdleComputeNodes

	// cow tracks which structures are frozen because another fork still
	// reads them (see cow.go). Zero value = nothing shared.
	cow cowState
}

// defaultShardNodes bounds the shard size when the caller leaves the shard
// count unset. A flush costs up to linear time in its shard (see index.go),
// so one unbounded shard lets an ordered read of a large cluster pay for
// the whole node range.
const defaultShardNodes = 2048

// initIndexes builds the incremental indexes from the freshly constructed
// node slice, partitioned into nShards contiguous shards (< 1: ⌈n/2048⌉,
// see defaultShardNodes). Nodes start idle and empty, so free == capacity
// everywhere.
func (c *Cluster) initIndexes(nShards int) {
	n := len(c.nodes)
	if nShards < 1 {
		nShards = max(1, (n+defaultShardNodes-1)/defaultShardNodes)
	}
	if nShards > n {
		nShards = n
	}
	c.shardSize = (n + nShards - 1) / nShards
	nShards = (n + c.shardSize - 1) / c.shardSize // drop empty tail shards
	c.shards = make([]shardIx, nShards)
	c.mergeIts = make([]freeIter, nShards)
	c.capOrder = make([]NodeID, n)
	for i := range c.nodes {
		c.capTotal += c.nodes[i].CapacityMB
		c.capOrder[i] = NodeID(i)
	}
	for s := range c.shards {
		sh := &c.shards[s]
		sh.base = s * c.shardSize
		sh.n = minInt(c.shardSize, n-sh.base)
		frees := make([]int64, sh.n)
		for i := 0; i < sh.n; i++ {
			node := &c.nodes[sh.base+i]
			frees[i] = node.FreeMB()
			sh.freeMB += frees[i]
			sh.lentMB += node.LentMB
			if frees[i] > 0 {
				sh.lenders++
			}
		}
		sh.free.init(frees)
		sh.idle.init(sh.n)
		for i := 0; i < sh.n; i++ {
			if d := sh.idle.setTo(i, c.nodes[sh.base+i].IsComputeAvailable()); d != 0 {
				c.bumpIdleSplit(sh, sh.base+i, d)
			}
		}
	}
	sort.Slice(c.capOrder, func(a, b int) bool {
		ca, cb := c.nodes[c.capOrder[a]].CapacityMB, c.nodes[c.capOrder[b]].CapacityMB
		if ca != cb {
			return ca < cb
		}
		return c.capOrder[a] < c.capOrder[b]
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// reindexMem refiles node n in its shard's free-memory index and folds the
// delta into the shard and cluster aggregates. delta is the change in
// allocated memory (positive = memory taken).
//
//dmp:hotpath
func (c *Cluster) reindexMem(n *Node, delta int64) {
	sh := &c.shards[int(n.ID)/c.shardSize]
	sh.freeMB -= delta
	sh.refile(int32(int(n.ID)-sh.base), n.FreeMB())
}

// reindexIdle refreshes node n's compute-availability bit and the
// capacity-class split counts.
//
//dmp:hotpath
func (c *Cluster) reindexIdle(n *Node) {
	sh := &c.shards[int(n.ID)/c.shardSize]
	if d := sh.idle.setTo(int(n.ID)-sh.base, n.IsComputeAvailable()); d != 0 {
		c.bumpIdleSplit(sh, int(n.ID), d)
	}
}

// bumpIdleSplit folds an idle-set membership delta into the shard's
// per-class counts.
func (c *Cluster) bumpIdleSplit(sh *shardIx, i, delta int) {
	if c.nodes[i].CapacityMB > c.largeMB {
		sh.idleLarge += delta
	} else {
		sh.idleNormal += delta
	}
}

// Config describes a cluster to build: Normal-capacity and Large-capacity
// (double) nodes, as in the paper's Table 4.
type Config struct {
	Nodes     int   // total node count
	Cores     int   // cores per node
	NormalMB  int64 // capacity of a normal node
	LargeFrac float64
	// Shards partitions the ledger indexes into this many contiguous
	// shards (see shard.go). 0 picks ⌈Nodes/2048⌉ shards, so no shard's
	// flush spans more than 2048 nodes (one shard up to 2048 nodes, which
	// covers every paper-scale preset); values above Nodes are clamped.
	// Results are identical for every shard count — only the index
	// update and scan costs change.
	Shards int
}

// New builds a single-shard cluster of n homogeneous nodes. All nodes count
// as "normal" in the idle-split summary: the large class is defined as
// capacity above the normal size, and a homogeneous cluster has none.
func New(n, cores int, capacityMB int64) *Cluster {
	return NewSharded(n, cores, capacityMB, 1)
}

// NewSharded is New with an explicit ledger shard count. The node array it
// fills is freshly allocated and unshared: no fork can exist before the
// constructor returns.
//
//dmp:cowsafe
func NewSharded(n, cores int, capacityMB int64, shards int) *Cluster {
	c := &Cluster{nodes: make([]Node, n), largeMB: capacityMB}
	for i := range c.nodes {
		c.nodes[i] = Node{ID: NodeID(i), Cores: cores, CapacityMB: capacityMB, RunningJob: NoJob}
	}
	c.initIndexes(shards)
	return c
}

// NewMixed builds a cluster per Config: the first round(LargeFrac·Nodes)
// nodes are large (2× NormalMB), the rest normal. The paper sweeps LargeFrac
// over {0, 0.15, 0.25, 0.50, 0.75, 1.0}. Like NewSharded, it writes a node
// array no fork can share yet.
//
//dmp:cowsafe
func NewMixed(cfg Config) *Cluster {
	c := &Cluster{nodes: make([]Node, cfg.Nodes), largeMB: cfg.NormalMB}
	nLarge := int(float64(cfg.Nodes)*cfg.LargeFrac + 0.5)
	for i := range c.nodes {
		cap := cfg.NormalMB
		if i < nLarge {
			cap = 2 * cfg.NormalMB
		}
		c.nodes[i] = Node{ID: NodeID(i), Cores: cfg.Cores, CapacityMB: cap, RunningJob: NoJob}
	}
	c.initIndexes(cfg.Shards)
	return c
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns the ledger for id. The returned pointer must be treated as
// read-only and must not be retained across mutating operations: on a forked
// cluster (see cow.go) the first mutation replaces the node slice, leaving
// old pointers reading the frozen pre-fork state.
func (c *Cluster) Node(id NodeID) *Node { return &c.nodes[id] }

// Nodes returns the node slice for iteration (read-only; same retention
// caveat as Node).
func (c *Cluster) Nodes() []Node { return c.nodes }

// TotalCapacityMB returns the sum of node capacities (O(1), cached at
// construction — capacities never change).
func (c *Cluster) TotalCapacityMB() int64 { return c.capTotal }

// TotalFreeMB returns the total unallocated memory across all nodes: the
// integer-exact sum of the per-shard aggregates, O(S) with S ≤ 64 — no
// ledger rescan.
func (c *Cluster) TotalFreeMB() int64 {
	var free int64
	for i := range c.shards {
		free += c.shards[i].freeMB
	}
	return free
}

// TotalAllocatedMB returns the total memory currently allocated (local on
// compute nodes plus lent to remote jobs): per node,
// local + lent == capacity − free, so the total is the capacity total minus
// the free total.
func (c *Cluster) TotalAllocatedMB() int64 { return c.capTotal - c.TotalFreeMB() }

// TotalLentMB returns the total memory currently lent to remote jobs across
// all nodes (O(S) over the per-shard aggregates maintained by
// Lend/ReturnLend). The telemetry sampler reads it every tick, so it must
// not rescan the ledger.
func (c *Cluster) TotalLentMB() int64 {
	var lent int64
	for i := range c.shards {
		lent += c.shards[i].lentMB
	}
	return lent
}

// IdleComputeNodes returns the IDs of nodes able to start a new job, in
// ascending ID order. The returned slice is a scratch buffer owned by the
// cluster: it is valid until the next IdleComputeNodes call and must not be
// retained or mutated.
func (c *Cluster) IdleComputeNodes() []NodeID {
	// Shards own contiguous ascending ID ranges, so concatenating the
	// per-shard bitset walks in shard order yields ascending IDs — the
	// exact single-bitset enumeration.
	buf := c.idleBuf[:0]
	for i := range c.shards {
		buf = c.shards[i].idle.appendIDs(buf, c.shards[i].base)
	}
	c.idleBuf = buf
	return c.idleBuf
}

// IdleComputeCount returns the number of compute-available nodes (O(S) sum
// of the per-shard bitset counts).
func (c *Cluster) IdleComputeCount() int {
	idle := 0
	for i := range c.shards {
		idle += c.shards[i].idle.count
	}
	return idle
}

// IdleComputeSplit returns the compute-available node counts by capacity
// class (normal vs large, the paper's double-capacity nodes), summed over
// the per-shard splits. The backfill reservation arithmetic reads it every
// scheduling pass.
func (c *Cluster) IdleComputeSplit() (normal, large int) {
	for i := range c.shards {
		normal += c.shards[i].idleNormal
		large += c.shards[i].idleLarge
	}
	return normal, large
}

// BusyNodes returns the number of nodes currently running a job (O(1)).
func (c *Cluster) BusyNodes() int { return c.busy }

// CapacityOrder returns all node IDs sorted by (capacity asc, ID asc). The
// slice is immutable and shared; callers must not modify it. The baseline
// policy walks it to prefer the smallest adequate node without re-sorting.
func (c *Cluster) CapacityOrder() []NodeID { return c.capOrder }

// StartJob marks node id as running job. It fails if the node is busy.
func (c *Cluster) StartJob(id NodeID, job int) error {
	if n := &c.nodes[id]; n.RunningJob != NoJob {
		return fmt.Errorf("%w: node %d runs job %d", ErrNodeBusy, id, n.RunningJob)
	}
	n := c.own(id)
	n.RunningJob = job
	c.busy++
	c.reindexIdle(n)
	return nil
}

// EndJob marks node id idle. It fails if the node was not running a job.
func (c *Cluster) EndJob(id NodeID) error {
	if n := &c.nodes[id]; n.RunningJob == NoJob {
		return fmt.Errorf("%w: node %d", ErrNodeIdle, id)
	}
	n := c.own(id)
	n.RunningJob = NoJob
	c.busy--
	c.reindexIdle(n)
	return nil
}

// AllocLocal reserves mb of node id's own DRAM for the job running on it.
//
//dmp:hotpath
func (c *Cluster) AllocLocal(id NodeID, mb int64) error {
	if mb < 0 {
		return ErrNegativeAmount
	}
	if n := &c.nodes[id]; n.FreeMB() < mb {
		return fmt.Errorf("%w: node %d free %d MB, need %d MB", ErrInsufficientMemory, id, n.FreeMB(), mb) //dmplint:ignore hotpath-alloc error formatting runs only on the rejected-request path, never on a successful mutation
	}
	n := c.own(id)
	n.LocalMB += mb
	c.reindexMem(n, mb)
	return nil
}

// ReleaseLocal returns mb of local memory on node id to the free pool.
//
//dmp:hotpath
func (c *Cluster) ReleaseLocal(id NodeID, mb int64) error {
	if mb < 0 {
		return ErrNegativeAmount
	}
	if n := &c.nodes[id]; n.LocalMB < mb {
		return fmt.Errorf("%w: node %d local %d MB, release %d MB", ErrOverRelease, id, n.LocalMB, mb) //dmplint:ignore hotpath-alloc error formatting runs only on the rejected-request path, never on a successful mutation
	}
	n := c.own(id)
	n.LocalMB -= mb
	c.reindexMem(n, -mb)
	return nil
}

// Lend reserves mb of node id's DRAM for a job running elsewhere. Lending is
// allowed regardless of the half-capacity rule — that rule only gates
// starting new jobs on the lender.
//
//dmp:hotpath
func (c *Cluster) Lend(id NodeID, mb int64) error {
	if mb < 0 {
		return ErrNegativeAmount
	}
	if n := &c.nodes[id]; n.FreeMB() < mb {
		return fmt.Errorf("%w: node %d free %d MB, lend %d MB", ErrInsufficientMemory, id, n.FreeMB(), mb) //dmplint:ignore hotpath-alloc error formatting runs only on the rejected-request path, never on a successful mutation
	}
	n := c.own(id)
	n.LentMB += mb
	c.shards[int(n.ID)/c.shardSize].lentMB += mb
	c.reindexMem(n, mb)
	c.reindexIdle(n) // lending past half capacity flips compute availability
	return nil
}

// ReturnLend gives back mb of memory previously lent by node id.
//
//dmp:hotpath
func (c *Cluster) ReturnLend(id NodeID, mb int64) error {
	if mb < 0 {
		return ErrNegativeAmount
	}
	if n := &c.nodes[id]; n.LentMB < mb {
		return fmt.Errorf("%w: node %d lent %d MB, return %d MB", ErrOverRelease, id, n.LentMB, mb) //dmplint:ignore hotpath-alloc error formatting runs only on the rejected-request path, never on a successful mutation
	}
	n := c.own(id)
	n.LentMB -= mb
	c.shards[int(n.ID)/c.shardSize].lentMB -= mb
	c.reindexMem(n, -mb)
	c.reindexIdle(n)
	return nil
}

// AscendLenders walks the nodes with free memory in (free desc, ID asc)
// order without materialising a slice, stopping when yield returns false.
// Consumers that only need lenders until a deficit is covered use this to
// touch O(answer) nodes instead of ranking the whole cluster. With a
// sharded ledger the walk is the two-level lender index: shards whose O(1)
// summary shows no lenders are never entered, the rest merge in global
// order. The ledger must not be mutated during the walk.
func (c *Cluster) AscendLenders(yield func(id NodeID, free int64) bool) {
	if len(c.shards) == 1 {
		c.shards[0].free.ascend(func(local int32, free int64) bool {
			if free <= 0 {
				return false
			}
			return yield(NodeID(local), free) //dmplint:ignore hotpath-reach yield is the caller's iterator body; every in-tree caller passes a prebuilt non-allocating visitor
		})
		return
	}
	c.ascendAll(false, yield)
}

// AscendFree walks all nodes — including those with no free memory — in
// (free desc, ID asc) order, stopping when yield returns false. The
// disaggregated placement uses it to pick compute nodes in the same order
// the retired candidate sort produced. The ledger must not be mutated
// during the walk.
func (c *Cluster) AscendFree(yield func(id NodeID, free int64) bool) {
	if len(c.shards) == 1 {
		c.shards[0].free.ascend(func(local int32, free int64) bool {
			return yield(NodeID(local), free)
		})
		return
	}
	c.ascendAll(true, yield)
}

// CheckInvariants verifies the ledger is consistent and the incremental
// indexes agree with it; it returns the first violation found, or nil.
// Tests and the simulator's debug mode call this.
func (c *Cluster) CheckInvariants() error {
	var freeSum, lentSum int64
	busy := 0
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.LocalMB < 0 || n.LentMB < 0 {
			return fmt.Errorf("node %d: negative ledger (local=%d lent=%d)", i, n.LocalMB, n.LentMB)
		}
		if n.LocalMB+n.LentMB > n.CapacityMB {
			return fmt.Errorf("node %d: overcommitted (local=%d lent=%d cap=%d)",
				i, n.LocalMB, n.LentMB, n.CapacityMB)
		}
		if n.RunningJob == NoJob && n.LocalMB != 0 {
			return fmt.Errorf("node %d: idle but has %d MB local allocation", i, n.LocalMB)
		}
		freeSum += n.FreeMB()
		lentSum += n.LentMB
		if n.RunningJob != NoJob {
			busy++
		}
	}
	// Index consistency: every derived structure must mirror the ledger.
	if got := c.TotalFreeMB(); freeSum != got {
		return fmt.Errorf("index: free total %d, ledger sum %d", got, freeSum)
	}
	if got := c.TotalLentMB(); lentSum != got {
		return fmt.Errorf("index: lent total %d, ledger sum %d", got, lentSum)
	}
	if busy != c.busy {
		return fmt.Errorf("index: busy count %d, ledger count %d", c.busy, busy)
	}
	idle := 0
	for i := range c.nodes {
		n := &c.nodes[i]
		sh := &c.shards[i/c.shardSize]
		local := i - sh.base
		if got := sh.free.key[local]; got != n.FreeMB() {
			return fmt.Errorf("index: node %d filed under %d MB free, ledger has %d", i, got, n.FreeMB())
		}
		avail := n.IsComputeAvailable()
		if avail {
			idle++
		}
		if got := sh.idle.bits[local>>6]&(1<<uint(local&63)) != 0; got != avail {
			return fmt.Errorf("index: node %d idle bit %t, ledger says %t", i, got, avail)
		}
	}
	if got := c.IdleComputeCount(); idle != got {
		return fmt.Errorf("index: idle count %d, ledger count %d", got, idle)
	}
	for s := range c.shards {
		if err := c.checkFreeOrder(s); err != nil {
			return err
		}
	}
	// Per-shard summaries must mirror the ledger slice they own, and their
	// idle splits must add up to the cluster's.
	idleNormal, idleLarge := 0, 0
	for s := range c.shards {
		sh := &c.shards[s]
		var freeMB, lentMB int64
		lenders, shIdle, shNormal, shLarge := 0, 0, 0, 0
		for i := sh.base; i < sh.base+sh.n; i++ {
			n := &c.nodes[i]
			freeMB += n.FreeMB()
			lentMB += n.LentMB
			if n.FreeMB() > 0 {
				lenders++
			}
			if n.IsComputeAvailable() {
				shIdle++
				if n.CapacityMB > c.largeMB {
					shLarge++
				} else {
					shNormal++
				}
			}
		}
		if freeMB != sh.freeMB || lentMB != sh.lentMB || lenders != sh.lenders || shIdle != sh.idle.count {
			return fmt.Errorf("index: shard %d summary (free=%d lent=%d lenders=%d idle=%d), ledger (free=%d lent=%d lenders=%d idle=%d)",
				s, sh.freeMB, sh.lentMB, sh.lenders, sh.idle.count, freeMB, lentMB, lenders, shIdle)
		}
		if shNormal != sh.idleNormal || shLarge != sh.idleLarge {
			return fmt.Errorf("index: shard %d idle split (normal=%d large=%d), ledger (normal=%d large=%d)",
				s, sh.idleNormal, sh.idleLarge, shNormal, shLarge)
		}
		idleNormal += shNormal
		idleLarge += shLarge
	}
	if gotN, gotL := c.IdleComputeSplit(); idleNormal != gotN || idleLarge != gotL {
		return fmt.Errorf("index: idle split (normal=%d large=%d), ledger (normal=%d large=%d)",
			gotN, gotL, idleNormal, idleLarge)
	}
	return nil
}

// checkFreeOrder verifies shard s's free-memory order without flushing it:
// order is a permutation of the shard sorted strictly by filed pairs,
// exactly the nodes on the dirty list are marked, every clean node is filed
// under its exact key (so the clean entries are in (free desc, ID asc)
// order), and a shard still shared with a fork is clean.
func (c *Cluster) checkFreeOrder(s int) error {
	ix := &c.shards[s].free
	n := len(ix.key)
	if len(ix.filed) != n || len(ix.order) != n || len(ix.mark) != n {
		return fmt.Errorf("index: shard %d filed/order/mark lengths %d/%d/%d, %d nodes",
			s, len(ix.filed), len(ix.order), len(ix.mark), n)
	}
	seen := make([]bool, n)
	for i, x := range ix.order {
		if x < 0 || int(x) >= n || seen[x] {
			return fmt.Errorf("index: shard %d order is not a permutation (entry %d)", s, x)
		}
		seen[x] = true
		if i > 0 && !ix.filedBefore(ix.order[i-1], x) {
			return fmt.Errorf("index: shard %d nodes %d (filed %d) and %d (filed %d) out of order",
				s, ix.order[i-1], ix.filed[ix.order[i-1]], x, ix.filed[x])
		}
		if !ix.mark[x] && ix.filed[x] != ix.key[x] {
			return fmt.Errorf("index: shard %d clean node %d filed under %d, key %d", s, x, ix.filed[x], ix.key[x])
		}
	}
	marked := 0
	for _, m := range ix.mark {
		if m {
			marked++
		}
	}
	onList := make([]bool, n)
	for _, x := range ix.dirty {
		if x < 0 || int(x) >= n || !ix.mark[x] || onList[x] {
			return fmt.Errorf("index: shard %d dirty list entry %d is unmarked or repeated", s, x)
		}
		onList[x] = true
	}
	if marked != len(ix.dirty) {
		return fmt.Errorf("index: shard %d has %d marked nodes, %d on the dirty list", s, marked, len(ix.dirty))
	}
	if c.cow.shardShared != nil && c.cow.shardShared[s] && len(ix.dirty) > 0 {
		return fmt.Errorf("index: shard %d is shared with a fork but has %d dirty nodes", s, len(ix.dirty))
	}
	return nil
}
