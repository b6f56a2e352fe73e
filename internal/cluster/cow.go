package cluster

// This file implements copy-on-write forking of the cluster ledger, the
// foundation of simulation snapshots and what-if branching.
//
// A fork is O(S) in the shard count: both sides of the fork keep the exact
// same index arrays (lender tree, idle bitset, node ledger slice) and
// merely mark them shared. The first mutation on either side copies the
// touched structure — the whole node slice once, and each shard's index
// arrays on first touch — so a branch that diverges late pays only for the
// shards it actually writes.
//
// Safety model: frozen (shared) arrays are only ever read. Every writer —
// base or fork, any number of generations deep — copies a structure before
// its first write to it, so concurrent branches never race as long as the
// fork itself happens before the branches start running. Ordered reads
// write nothing but per-walk scratch (the lender walk's heap, TopIdle's
// buffer), which is never shared: the fork starts with fresh scratch and
// regrows it on first use.
//
// The mutation discipline is enforced statically: every ledger write path
// must go through own() (see the dmplint cowalias analyzer), which is the
// single place the shared→private transition happens.

// cowState is the per-Cluster fork bookkeeping. It lives in its own struct
// so Fork can reset the fork-local counters with one assignment.
type cowState struct {
	// active is true while any structure is still shared with another
	// fork; it is the only field the mutation fast path reads.
	active bool

	nodesShared bool   // node ledger slice shared with another fork
	shardShared []bool // per shard: index arrays shared with another fork
	sharedLeft  int    // shards still shared; the node slice is tracked by nodesShared

	// Copy counters, reported via CowStats and surfaced as branch
	// telemetry: how much of the snapshot this fork actually paid for.
	nodeCopies int64 // node-slice copies performed (0 or 1)
	shardThaws int64 // shards whose index arrays were privatised
}

// Fork returns an independent copy-on-write branch of the cluster in O(S):
// no node or index data is copied. Both the receiver and the returned branch
// keep reading the now-frozen arrays; whichever side mutates a structure
// first pays a one-time copy of that structure (the node slice, or one
// shard's index arrays). Any number of forks may be taken, including forks
// of forks; all of them may run concurrently afterwards.
func (c *Cluster) Fork() *Cluster {
	f := &Cluster{}
	*f = *c
	// Each side owns its shard headers and aggregates (freeMB, lentMB,
	// lender/idle counts are plain struct fields), but the array backing of
	// the lender trees and bitsets stays shared until thawed.
	f.shards = append([]shardIx(nil), c.shards...)
	// Scratch is never shared across forks: the branch regrows its own.
	f.front = nil
	f.topFree = nil
	// Mark everything shared on both sides; the first writer copies.
	c.markShared()
	f.cow = cowState{
		active:      true,
		nodesShared: true,
		shardShared: make([]bool, len(f.shards)),
		sharedLeft:  len(f.shards),
	}
	for i := range f.cow.shardShared {
		f.cow.shardShared[i] = true
	}
	return f
}

// markShared flags every mutable index structure on the receiver as shared.
// Earlier thaw progress is discarded: after a new fork every structure is
// frozen again, because the new branch now reads the receiver's arrays.
func (c *Cluster) markShared() {
	c.cow.active = true
	c.cow.nodesShared = true
	if c.cow.shardShared == nil {
		c.cow.shardShared = make([]bool, len(c.shards))
	}
	for i := range c.cow.shardShared {
		c.cow.shardShared[i] = true
	}
	c.cow.sharedLeft = len(c.shards)
}

// CowStats reports how many copy-on-write materialisations this cluster has
// performed since it was created or last forked: whole-node-slice copies
// (at most one per fork generation) and per-shard index thaws. The branch
// telemetry reports these so a what-if run can show how little of the
// snapshot it touched.
func (c *Cluster) CowStats() (nodeCopies, shardThaws int64) {
	return c.cow.nodeCopies, c.cow.shardThaws
}

// own returns node id's ledger row for writing, materialising any structure
// still shared with another fork first. This is the only shared→private
// transition point; every mutating ledger operation goes through it (the
// dmplint cowalias analyzer enforces this). On an unforked cluster it is one
// predictable branch.
//
//dmp:hotpath
func (c *Cluster) own(id NodeID) *Node {
	if c.cow.active {
		c.materialize(int(id) / c.shardSize)
	}
	return &c.nodes[id]
}

// materialize privatises the node slice (once per fork generation) and shard
// s's index arrays (once per shard per generation). Kept out of own so the
// no-fork fast path stays a branch over a single bool.
func (c *Cluster) materialize(s int) {
	if c.cow.nodesShared {
		c.nodes = append([]Node(nil), c.nodes...)
		c.cow.nodesShared = false
		c.cow.nodeCopies++
	}
	if c.cow.shardShared[s] {
		c.thaw(s)
	}
	if c.cow.sharedLeft == 0 && !c.cow.nodesShared {
		c.cow.active = false
	}
}

// thaw copies shard s's index arrays — lender tree and idle bitset — so
// this fork can write them.
func (c *Cluster) thaw(s int) {
	sh := &c.shards[s]
	sh.tree = append([]uint64(nil), sh.tree...)
	sh.idle.bits = append([]uint64(nil), sh.idle.bits...)
	c.cow.shardShared[s] = false
	c.cow.sharedLeft--
	c.cow.shardThaws++
}
