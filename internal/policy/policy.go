// Package policy implements the paper's three memory-allocation policies:
//
//   - Baseline: no disaggregation. A job gets exclusive access to whole
//     nodes, memory included, so its per-node request must fit a single
//     node's capacity.
//   - Static (Zacarias et al., ICPADS'21): disaggregated memory with a
//     fixed allocation equal to the submission-script request. Placement
//     prefers nodes with enough free memory and borrows any deficit from
//     the nodes with the most free memory.
//   - Dynamic (this paper): initial placement identical to Static, then the
//     allocation follows the job's observed usage — the Decider compares
//     usage with the current allocation, the Actuator frees remote memory
//     first when shrinking and takes local memory first when growing.
//
// Place methods mutate the cluster ledger only on success; a failed
// placement leaves the cluster untouched.
//
// Placement runs millions of times inside the event loop, so the policies
// are stateful only in the sense of holding reusable scratch buffers: with
// the default most-free lender order they read the cluster's incremental
// indexes (free-memory order, idle-compute bitset, capacity order) instead
// of rescanning and sorting the node slice, and they allocate nothing on
// the steady-state path. A Policy instance is consequently not safe for
// concurrent use; each simulator builds its own.
package policy

import (
	"dismem/internal/cluster"
	"dismem/internal/job"
)

// Kind enumerates the three policies.
type Kind int

const (
	Baseline Kind = iota
	Static
	Dynamic
)

// String returns the paper's name for the policy.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	}
	return "unknown"
}

// LenderRanker orders candidate lender nodes for borrowing on behalf of a
// compute node. exclude contains the borrowing job's own compute nodes.
// A nil ranker selects the default most-free order, served directly from
// the cluster's free-memory index; a non-nil ranker (e.g. the
// topology-aware nearest-first order) is called on every borrow.
type LenderRanker func(cl *cluster.Cluster, borrower cluster.NodeID, exclude map[cluster.NodeID]bool) []cluster.NodeID

// MostFreeRanker is the default lender order: free memory descending.
// Passing it to NewWithRanker is equivalent to passing nil, except that the
// nil form uses the streaming index fast path.
func MostFreeRanker(cl *cluster.Cluster, _ cluster.NodeID, exclude map[cluster.NodeID]bool) []cluster.NodeID {
	return cl.LendersByFreeDesc(exclude)
}

// Policy decides job placement and whether allocations track usage.
type Policy interface {
	Kind() Kind
	// CanEverRun reports whether the job could run on cl if it were
	// completely empty. Scenarios containing a job that can never run
	// are reported as infeasible (the paper's "missing bars").
	CanEverRun(cl *cluster.Cluster, j *job.Job) bool
	// Place tries to start the job now, mutating the ledger on success.
	Place(cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool)
	// Tracks reports whether allocations follow observed usage
	// (true only for Dynamic).
	Tracks() bool
}

// New returns the policy implementation for kind with the default
// (most-free) lender order.
func New(kind Kind) Policy { return NewWithRanker(kind, nil) }

// NewWithRanker returns the policy implementation for kind with a custom
// lender order; nil means the default most-free order. The baseline never
// borrows, so the ranker is ignored.
func NewWithRanker(kind Kind, ranker LenderRanker) Policy {
	switch kind {
	case Baseline:
		return &baselinePolicy{}
	case Static:
		return &staticPolicy{place: placer{ranker: ranker}}
	case Dynamic:
		return &dynamicPolicy{place: placer{ranker: ranker}}
	}
	panic("policy: unknown kind")
}

// NewDomainFirst returns the policy implementation for kind with
// within-domain-first lender preference: placement borrowing drains the
// borrowing node's own ledger shard (its pressure domain) before spilling
// to the global most-free order. Used by the partitioned-pressure
// contention mode, where keeping leases inside the home domain both lowers
// that domain's cross-traffic and shrinks the job's frozen domain set. The
// baseline never borrows, so it is unaffected.
func NewDomainFirst(kind Kind) Policy {
	switch kind {
	case Baseline:
		return &baselinePolicy{}
	case Static:
		return &staticPolicy{place: placer{domainFirst: true}}
	case Dynamic:
		return &dynamicPolicy{place: placer{domainFirst: true}}
	}
	panic("policy: unknown kind")
}

// ---------------------------------------------------------------- baseline

type baselinePolicy struct {
	cand []cluster.NodeID // scratch
}

func (*baselinePolicy) Kind() Kind   { return Baseline }
func (*baselinePolicy) Tracks() bool { return false }

func (*baselinePolicy) CanEverRun(cl *cluster.Cluster, j *job.Job) bool {
	n := 0
	for _, node := range cl.Nodes() {
		if node.CapacityMB >= j.RequestMB {
			n++
			if n >= j.Nodes {
				return true
			}
		}
	}
	return false
}

// Place for the baseline picks idle nodes whose capacity covers the request,
// preferring the smallest adequate capacity so large nodes stay available
// for large jobs. The job receives the node's entire memory (exclusive use).
// The cluster's static capacity order replaces the per-call candidate sort;
// the walk stops as soon as enough nodes are found.
func (p *baselinePolicy) Place(cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool) {
	cand := p.cand[:0]
	for _, id := range cl.CapacityOrder() {
		node := cl.Node(id)
		// Baseline never lends, so idleness is the only gate besides
		// capacity.
		if node.RunningJob == cluster.NoJob && node.CapacityMB >= j.RequestMB {
			cand = append(cand, id)
			if len(cand) == j.Nodes {
				break
			}
		}
	}
	p.cand = cand
	if len(cand) < j.Nodes {
		return nil, false
	}
	ja := &cluster.JobAllocation{Job: j.ID, PerNode: make([]cluster.NodeAllocation, 0, j.Nodes)}
	for _, id := range cand {
		mustStart(cl, id, j.ID)
		ja.PerNode = append(ja.PerNode, cluster.NodeAllocation{Node: id})
		mustGrowLocal(cl, ja, len(ja.PerNode)-1, cl.Node(id).CapacityMB)
	}
	return ja, true
}

// ---------------------------------------------------------------- static

type staticPolicy struct {
	place placer
}

func (*staticPolicy) Kind() Kind   { return Static }
func (*staticPolicy) Tracks() bool { return false }

func (*staticPolicy) CanEverRun(cl *cluster.Cluster, j *job.Job) bool {
	return disaggCanEverRun(cl, j)
}

func (p *staticPolicy) Place(cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool) {
	return p.place.place(cl, j, j.RequestMB)
}

// ---------------------------------------------------------------- dynamic

type dynamicPolicy struct {
	place placer
}

func (*dynamicPolicy) Kind() Kind   { return Dynamic }
func (*dynamicPolicy) Tracks() bool { return true }

func (*dynamicPolicy) CanEverRun(cl *cluster.Cluster, j *job.Job) bool {
	return disaggCanEverRun(cl, j)
}

// Place for the dynamic policy is identical to the static policy: the
// initial allocation honours the submission request; only later usage
// updates diverge (see Adjuster).
func (p *dynamicPolicy) Place(cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool) {
	return p.place.place(cl, j, j.RequestMB)
}

// ------------------------------------------------- shared disaggregated

// disaggCanEverRun: on an empty cluster the job needs enough compute nodes
// and, across the whole pool, enough total memory. Each compute node's local
// share plus everything borrowed must exist somewhere.
func disaggCanEverRun(cl *cluster.Cluster, j *job.Job) bool {
	if cl.Len() < j.Nodes {
		return false
	}
	return cl.TotalCapacityMB() >= j.TotalRequestMB()
}

// plan is the pure placement decision for one compute node; planning never
// touches the ledger, so failure needs no rollback.
type plan struct {
	node   cluster.NodeID
	local  int64
	borrow []cluster.Lease // capacity kept across placements
}

// placer implements the Zacarias placement — prefer compute-available nodes
// whose free memory covers the per-node request; take the most-free nodes
// and borrow the deficit from the most-free lenders otherwise — with all
// working state in reusable scratch buffers.
type placer struct {
	ranker      LenderRanker // nil = most-free via the cluster index
	domainFirst bool         // within-domain-first borrowing (pressure domains)

	chosen  []cluster.NodeID
	plans   []plan
	lenders []cluster.NodeID // fast path: lender snapshot in rank order
	lf      []int64          // remaining lendable memory, parallel to lenders
	own     map[cluster.NodeID]bool
	lfMap   map[cluster.NodeID]int64 // custom-ranker and domain-first paths
}

func (p *placer) place(cl *cluster.Cluster, j *job.Job, perNodeMB int64) (*cluster.JobAllocation, bool) {
	if cl.IdleComputeCount() < j.Nodes {
		return nil, false
	}
	// Select compute nodes by free memory descending (ties by ID) so they
	// need as little borrowing as possible — read straight off the index
	// in the exact order the retired sort produced.
	chosen := p.chosen[:0]
	cl.AscendFree(func(id cluster.NodeID, _ int64) bool {
		if cl.Node(id).IsComputeAvailable() {
			chosen = append(chosen, id)
		}
		return len(chosen) < j.Nodes
	})
	p.chosen = chosen

	// Feasibility: total free memory in the system must cover the job.
	if cl.TotalFreeMB() < int64(j.Nodes)*perNodeMB {
		return nil, false
	}

	// Plan local shares first (maximising the local-to-remote ratio), then
	// plan the borrowing.
	plans := p.plans
	if cap(plans) < j.Nodes {
		plans = make([]plan, j.Nodes)
	}
	plans = plans[:j.Nodes]
	p.plans = plans
	var deficit int64
	for i, id := range chosen {
		plans[i].node = id
		plans[i].local = minInt64(perNodeMB, cl.Node(id).FreeMB())
		plans[i].borrow = plans[i].borrow[:0]
		deficit += perNodeMB - plans[i].local
	}
	if deficit > 0 {
		ok := false
		switch {
		case p.domainFirst:
			ok = p.planBorrowDomains(cl, perNodeMB)
		case p.ranker == nil:
			ok = p.planBorrowFast(cl, perNodeMB, deficit)
		default:
			ok = p.planBorrowRanked(cl, perNodeMB)
		}
		if !ok {
			return nil, false // pool exhausted despite the aggregate check
		}
	}

	// Apply. Every step is guaranteed to succeed by the planning above;
	// a failure indicates ledger corruption and panics via must helpers.
	ja := &cluster.JobAllocation{Job: j.ID, PerNode: make([]cluster.NodeAllocation, 0, j.Nodes)}
	for i := range plans {
		pl := &plans[i]
		mustStart(cl, pl.node, j.ID)
		ja.PerNode = append(ja.PerNode, cluster.NodeAllocation{Node: pl.node})
		mustGrowLocal(cl, ja, i, pl.local)
		for _, lease := range pl.borrow {
			mustGrowRemote(cl, ja, i, lease.Lender, lease.MB)
		}
	}
	return ja, true
}

// planBorrowFast plans the deficit borrowing in most-free order from the
// cluster index. The ledger does not change during planning, so the
// reference implementation's per-node re-rank always returned the same
// list; one snapshot — truncated as soon as it can cover the whole deficit
// — serves every compute node of the job.
func (p *placer) planBorrowFast(cl *cluster.Cluster, perNodeMB, deficit int64) bool {
	lenders, lf := p.lenders[:0], p.lf[:0]
	var avail int64
	cl.AscendLenders(func(id cluster.NodeID, free int64) bool {
		if !containsNode(p.chosen, id) {
			lenders = append(lenders, id)
			lf = append(lf, free)
			avail += free
		}
		return avail < deficit
	})
	p.lenders, p.lf = lenders, lf
	if avail < deficit {
		return false
	}
	for i := range p.plans {
		pl := &p.plans[i]
		need := perNodeMB - pl.local
		for k := 0; need > 0 && k < len(lenders); k++ {
			take := minInt64(need, lf[k])
			if take <= 0 {
				continue
			}
			pl.borrow = append(pl.borrow, cluster.Lease{Lender: lenders[k], MB: take})
			lf[k] -= take
			need -= take
		}
		if need > 0 {
			return false
		}
	}
	return true
}

// planBorrowRanked plans the deficit borrowing with a custom lender order,
// re-ranking per compute node exactly as the reference did (the order may
// depend on the borrower, e.g. nearest-first on a torus).
func (p *placer) planBorrowRanked(cl *cluster.Cluster, perNodeMB int64) bool {
	if p.own == nil {
		p.own = make(map[cluster.NodeID]bool, len(p.chosen))
		p.lfMap = make(map[cluster.NodeID]int64)
	}
	for id := range p.own {
		delete(p.own, id)
	}
	for id := range p.lfMap {
		delete(p.lfMap, id)
	}
	for _, id := range p.chosen {
		p.own[id] = true
	}
	// Remaining lendable memory per node, shared across the job's compute
	// nodes as leases are planned.
	for _, n := range cl.Nodes() {
		if !p.own[n.ID] && n.FreeMB() > 0 {
			p.lfMap[n.ID] = n.FreeMB()
		}
	}
	for i := range p.plans {
		pl := &p.plans[i]
		need := perNodeMB - pl.local
		if need == 0 {
			continue
		}
		for _, l := range p.ranker(cl, pl.node, p.own) {
			take := minInt64(need, p.lfMap[l])
			if take <= 0 {
				continue
			}
			pl.borrow = append(pl.borrow, cluster.Lease{Lender: l, MB: take})
			p.lfMap[l] -= take
			need -= take
			if need == 0 {
				break
			}
		}
		if need > 0 {
			return false
		}
	}
	return true
}

// planBorrowDomains plans the deficit borrowing with within-domain
// preference: each compute node borrows from lenders in its own ledger
// shard (its pressure domain) first — keeping the borrowed traffic inside
// the domain whose pressure already prices it — and spills to the global
// most-free order only for the remainder. Remaining lendable memory is
// tracked per lender across the job's compute nodes; planning never
// mutates the ledger. With a single shard the home walk IS the global
// walk, so the plan degenerates to planBorrowFast's.
func (p *placer) planBorrowDomains(cl *cluster.Cluster, perNodeMB int64) bool {
	if p.own == nil {
		p.own = make(map[cluster.NodeID]bool, len(p.chosen))
		p.lfMap = make(map[cluster.NodeID]int64)
	}
	for id := range p.own {
		delete(p.own, id)
	}
	for id := range p.lfMap {
		delete(p.lfMap, id)
	}
	for _, id := range p.chosen {
		p.own[id] = true
	}
	for i := range p.plans {
		pl := &p.plans[i]
		need := perNodeMB - pl.local
		if need == 0 {
			continue
		}
		scan := func(id cluster.NodeID, free int64) bool {
			if p.own[id] {
				return true
			}
			left, seen := p.lfMap[id]
			if !seen {
				left = free // ledger unchanged during planning
			}
			take := minInt64(need, left)
			if take > 0 {
				pl.borrow = append(pl.borrow, cluster.Lease{Lender: id, MB: take})
				p.lfMap[id] = left - take
				need -= take
			}
			return need > 0
		}
		cl.AscendShardLenders(cl.ShardOf(pl.node), scan)
		if need > 0 {
			cl.AscendLenders(scan)
		}
		if need > 0 {
			return false
		}
	}
	return true
}

func containsNode(ids []cluster.NodeID, id cluster.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func mustStart(cl *cluster.Cluster, id cluster.NodeID, jobID int) {
	if err := cl.StartJob(id, jobID); err != nil {
		panic(err)
	}
}

func mustGrowLocal(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, mb int64) {
	if err := ja.GrowLocal(cl, i, mb); err != nil {
		panic(err)
	}
}

func mustGrowRemote(cl *cluster.Cluster, ja *cluster.JobAllocation, i int, lender cluster.NodeID, mb int64) {
	if err := ja.GrowRemote(cl, i, lender, mb); err != nil {
		panic(err)
	}
}
