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
// Both disaggregated policies borrow through one planner (borrow.go):
// for each compute node short of memory it walks that node's lender
// sequence, skips the job's own nodes, and takes min(need, what the lender
// has left after earlier takes in the same plan); the plan is applied only
// once planning is done. Growth (Adjuster) is the one-node case of
// placement. The sequence is an Order: most-free (the default),
// domain-first (pressure domains) or nearest-first (torus topology).
//
// Place methods mutate the cluster ledger only on success; a failed
// placement leaves the cluster untouched.
//
// Placement runs millions of times inside the event loop, so the policies
// are stateful only in the sense of holding reusable scratch buffers. They
// read the cluster's incremental indexes (free-memory order, idle-compute
// bitset, capacity order) instead of rescanning and sorting the node
// slice; only nearest-first, whose order depends on the borrower, ranks
// the lenders per borrower. A warm Place allocates nothing but the
// allocation it returns, and a warm Adjust allocates nothing. A Policy or
// Adjuster is consequently not safe for concurrent use; each simulator
// builds its own.
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

// New returns the policy implementation for kind, borrowing in lender
// order o. The baseline never borrows, so it ignores o.
func New(kind Kind, o Order) Policy {
	switch kind {
	case Baseline:
		return &baselinePolicy{}
	case Static, Dynamic:
		p := &disaggPolicy{kind: kind}
		p.init(o)
		return p
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

// ---------------------------------------------------------- disaggregated

// disaggPolicy is both disaggregated policies. They place identically —
// the Zacarias placement: prefer compute-available nodes whose free memory
// covers the per-node request, take the most-free nodes and borrow the
// deficit otherwise — and differ only in whether the allocation then
// tracks usage (Dynamic, see Adjuster).
type disaggPolicy struct {
	kind Kind
	planner
	chosen []cluster.NodeID // scratch
	plans  []plan           // scratch
}

func (p *disaggPolicy) Kind() Kind   { return p.kind }
func (p *disaggPolicy) Tracks() bool { return p.kind == Dynamic }

// CanEverRun: on an empty cluster the job needs enough compute nodes and,
// across the whole pool, enough total memory. Each compute node's local
// share plus everything borrowed must exist somewhere.
func (*disaggPolicy) CanEverRun(cl *cluster.Cluster, j *job.Job) bool {
	if cl.Len() < j.Nodes {
		return false
	}
	return cl.TotalCapacityMB() >= j.TotalRequestMB()
}

// Place honours the submission request for both policies; only later usage
// updates diverge.
func (p *disaggPolicy) Place(cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool) {
	if !p.choose(cl, j) {
		return nil, false
	}
	// Apply. Every step is guaranteed to succeed by the planning above;
	// a failure indicates ledger corruption and panics via must helpers.
	ja := &cluster.JobAllocation{Job: j.ID, PerNode: make([]cluster.NodeAllocation, 0, j.Nodes)}
	for i := range p.plans {
		pl := &p.plans[i]
		mustStart(cl, pl.node, j.ID)
		ja.PerNode = append(ja.PerNode, cluster.NodeAllocation{Node: pl.node})
		mustGrowLocal(cl, ja, i, pl.local)
		for _, lease := range pl.borrow {
			mustGrowRemote(cl, ja, i, lease.Lender, lease.MB)
		}
	}
	return ja, true
}

// choose picks the job's compute nodes and plans its memory into p.plans
// without touching the ledger, reporting whether the job fits now.
func (p *disaggPolicy) choose(cl *cluster.Cluster, j *job.Job) bool {
	if cl.IdleComputeCount() < j.Nodes {
		return false
	}
	// Select compute nodes by free memory descending (ties by ID) so they
	// need as little borrowing as possible.
	chosen := p.chosen[:0]
	cl.AscendFree(func(id cluster.NodeID, _ int64) bool {
		if cl.Node(id).IsComputeAvailable() {
			chosen = append(chosen, id)
		}
		return len(chosen) < j.Nodes
	})
	p.chosen = chosen

	// Feasibility: total free memory in the system must cover the job.
	if cl.TotalFreeMB() < int64(j.Nodes)*j.RequestMB {
		return false
	}

	// Plan local shares first (maximising the local-to-remote ratio), then
	// plan the borrowing; the pool may still be exhausted despite the
	// aggregate check.
	plans := p.plans
	if cap(plans) < j.Nodes {
		plans = make([]plan, j.Nodes)
	}
	plans = plans[:j.Nodes]
	p.plans = plans
	var deficit int64
	for i, id := range chosen {
		pl := &plans[i]
		pl.node = id
		pl.local = min(j.RequestMB, cl.Node(id).FreeMB())
		pl.need = j.RequestMB - pl.local
		pl.borrow = pl.borrow[:0]
		deficit += pl.need
	}
	return deficit == 0 || p.borrow(cl, plans, chosen, nil)
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
