package policy

import (
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/topology"
)

// Order is the sequence in which a borrowing compute node takes remote
// memory from lenders. The zero Order is most-free: free memory descending,
// ties by ascending node ID, read straight off the cluster's free-memory
// index.
type Order struct {
	kind  orderKind
	torus topology.Torus // nearestFirst only
}

type orderKind uint8

const (
	mostFree orderKind = iota
	domainFirst
	nearestFirst
)

// DomainFirst is the partitioned-pressure order: the borrower's own ledger
// shard (its pressure domain) in most-free order, then the rest. At
// placement the rest is the global most-free order; on growth it is the
// job's frozen domain set, so growth never leaves the domains whose
// pressure already prices the job's traffic.
func DomainFirst() Order { return Order{kind: domainFirst} }

// NearestFirst is the topology-aware order on torus t: lenders sorted by
// hop count from the borrower, ties by free memory descending and then
// node ID. Cluster node IDs map directly onto torus endpoints.
func NearestFirst(t topology.Torus) Order { return Order{kind: nearestFirst, torus: t} }

// plan is the borrowing decision for one compute node: local memory taken
// on the node itself, the leases planned so far, and the deficit they have
// yet to cover. Planning never touches the ledger, so a failed placement
// needs no rollback.
type plan struct {
	node   cluster.NodeID
	local  int64
	need   int64
	borrow []cluster.Lease // capacity kept across calls
}

// planner is the one borrowing routine behind both Place and Adjust; growth
// is the one-node case of placement. All its state is reusable scratch, so
// a warm planner allocates nothing.
type planner struct {
	order Order
	own   []uint64        // bitset of the borrowing job's compute nodes, never lenders
	taken []cluster.Lease // memory planned from each lender so far, sorted by lender
	near  []nearLender    // nearest-first: one borrower's lenders, a heap by byNearest
	cur   *plan           // the plan the walk is filling
	visit func(id cluster.NodeID, free int64) bool
}

// nearLender is one lender as the nearest-first order ranks it.
type nearLender struct {
	hops int
	free int64
	id   cluster.NodeID
}

func (p *planner) init(o Order) {
	p.order = o
	p.visit = p.take // bound once: the walks pass it without allocating
}

// borrow plans every plan's deficit from its node's lender sequence,
// skipping own (the job's compute nodes, whose free memory belongs to their
// local side) and debiting each lender by what earlier takes in the same
// call planned from it. doms is the domain set the domain-first order
// spills to after the home shard; nil spills to the global order. borrow
// reports whether every deficit was covered; on false the plans keep what
// could be planned, up to and including the first plan left short.
//
//dmp:hotpath
func (p *planner) borrow(cl *cluster.Cluster, plans []plan, own []cluster.NodeID, doms []int32) bool {
	if words := (cl.Len() + 63) / 64; len(p.own) < words {
		p.own = make([]uint64, words)
	}
	for _, id := range own {
		p.own[id/64] |= 1 << (id % 64)
	}
	ok := true
	for i := range plans {
		if p.cur = &plans[i]; p.cur.need > 0 {
			p.walk(cl, doms)
			if p.cur.need > 0 {
				ok = false
				break
			}
		}
	}
	for _, id := range own {
		p.own[id/64] = 0
	}
	p.taken, p.cur = p.taken[:0], nil
	return ok
}

// walk offers the current plan's lenders to take in the order's sequence
// until the deficit is covered or the sequence ends.
//
//dmp:hotpath
func (p *planner) walk(cl *cluster.Cluster, doms []int32) {
	switch p.order.kind {
	case mostFree:
		cl.AscendLenders(p.visit)
	case domainFirst:
		home := cl.ShardOf(p.cur.node)
		cl.AscendShardLenders(home, p.visit)
		if doms == nil {
			if p.cur.need > 0 {
				cl.AscendLenders(p.visit)
			}
			return
		}
		for _, d := range doms {
			if p.cur.need == 0 {
				break
			}
			if int(d) != home {
				cl.AscendShardLenders(int(d), p.visit)
			}
		}
	case nearestFirst:
		p.walkNearest(cl)
	}
}

// take plans min(need, what the lender has left) from one lender and
// reports whether the deficit is still open.
//
//dmp:hotpath
func (p *planner) take(id cluster.NodeID, free int64) bool {
	if p.own[id/64]&(1<<(id%64)) != 0 {
		return true
	}
	k, found := slices.BinarySearchFunc(p.taken, id, byLender)
	if found {
		free -= p.taken[k].MB
	}
	pl := p.cur
	if mb := min(pl.need, free); mb > 0 {
		pl.borrow = append(pl.borrow, cluster.Lease{Lender: id, MB: mb})
		pl.need -= mb
		if found {
			p.taken[k].MB += mb
		} else {
			p.taken = slices.Insert(p.taken, k, cluster.Lease{Lender: id, MB: mb})
		}
	}
	return pl.need > 0
}

func byLender(l cluster.Lease, id cluster.NodeID) int { return int(l.Lender) - int(id) }

// walkNearest offers the current plan's lenders nearest-first. The order
// depends on the borrower, so it is rebuilt for each one, as a heap:
// building it is linear, and the walk pops only the lenders it takes from.
// byNearest is a total order (the node ID breaks every tie), so the pops
// come in exactly the order a full sort would give.
//
//dmp:hotpath
func (p *planner) walkNearest(cl *cluster.Cluster) {
	p.rankNearest(cl)
	for len(p.near) > 0 {
		if l := p.popNearest(); !p.take(l.id, l.free) {
			break
		}
	}
}

// rankNearest heaps every node with free memory nearest-first from the
// current borrower (take skips the job's own).
//
//dmp:hotpath
func (p *planner) rankNearest(cl *cluster.Cluster) {
	near := p.near[:0]
	nodes := cl.Nodes()
	for i := range nodes {
		if n := &nodes[i]; n.FreeMB() > 0 {
			hops := p.order.torus.Hops(int(p.cur.node), int(n.ID))
			near = append(near, nearLender{hops: hops, free: n.FreeMB(), id: n.ID})
		}
	}
	for i := len(near)/2 - 1; i >= 0; i-- {
		siftNearest(near, i)
	}
	p.near = near
}

// popNearest removes the nearest lender from the heap and returns it.
//
//dmp:hotpath
func (p *planner) popNearest() nearLender {
	h := p.near
	top, last := h[0], len(h)-1
	h[0] = h[last]
	p.near = h[:last]
	siftNearest(p.near, 0)
	return top
}

// siftNearest moves h[i] down to its place in the min-heap h.
//
//dmp:hotpath
func siftNearest(h []nearLender, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && byNearest(h[r], h[c]) < 0 {
			c = r
		}
		if byNearest(h[c], h[i]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func byNearest(a, b nearLender) int {
	switch {
	case a.hops != b.hops:
		return a.hops - b.hops
	case a.free != b.free:
		if a.free > b.free {
			return -1
		}
		return 1
	}
	return int(a.id) - int(b.id)
}
