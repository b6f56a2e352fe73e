package cluster

import "fmt"

// Lease records memory borrowed from a remote lender node on behalf of one
// compute node of a job.
type Lease struct {
	Lender NodeID
	MB     int64
}

// NodeAllocation is the memory a job holds for one of its compute nodes:
// some local DRAM plus zero or more remote leases. LocalMB and Leases are
// written only by the JobAllocation methods, which keep the cached totals
// in step with them.
type NodeAllocation struct {
	Node    NodeID
	LocalMB int64
	Leases  []Lease

	remoteMB int64 // sum of Leases[*].MB
}

// RemoteMB returns the total remote memory held via leases.
func (a *NodeAllocation) RemoteMB() int64 { return a.remoteMB }

// TotalMB returns local plus remote memory.
func (a *NodeAllocation) TotalMB() int64 { return a.LocalMB + a.remoteMB }

// LocalFraction returns the local share of the allocation in [0,1]. An empty
// allocation counts as fully local (no remote traffic).
func (a *NodeAllocation) LocalFraction() float64 {
	t := a.TotalMB()
	if t == 0 {
		return 1
	}
	return float64(a.LocalMB) / float64(t)
}

// JobAllocation is the complete memory placement of a running job. Its
// methods own every change to its per-node records, so the job's totals
// are kept as the records change rather than re-summed on every read.
type JobAllocation struct {
	Job     int
	PerNode []NodeAllocation

	totalMB, remoteMB int64 // sums of PerNode[*].TotalMB and RemoteMB
}

// TotalMB returns the job's total allocated memory across all its nodes.
func (ja *JobAllocation) TotalMB() int64 { return ja.totalMB }

// RemoteMB returns the job's total remote memory.
func (ja *JobAllocation) RemoteMB() int64 { return ja.remoteMB }

// CheckTotals re-sums every node's local memory and leases and reports the
// first cached total that disagrees with the sum.
func (ja *JobAllocation) CheckTotals() error {
	var total, remote int64
	for i := range ja.PerNode {
		na := &ja.PerNode[i]
		var r int64
		for _, l := range na.Leases {
			r += l.MB
		}
		if r != na.remoteMB {
			return fmt.Errorf("job %d node %d: cached remote %d MB, leases sum to %d", ja.Job, na.Node, na.remoteMB, r)
		}
		total += na.LocalMB + r
		remote += r
	}
	if total != ja.totalMB || remote != ja.remoteMB {
		return fmt.Errorf("job %d: cached total/remote %d/%d MB, records sum to %d/%d",
			ja.Job, ja.totalMB, ja.remoteMB, total, remote)
	}
	return nil
}

// Release returns every byte of the allocation to the cluster: local memory,
// leases, and the compute nodes themselves. It must be called exactly once
// per placed allocation (job finish, kill, or OOM restart).
func (ja *JobAllocation) Release(c *Cluster) error {
	for i := range ja.PerNode {
		na := &ja.PerNode[i]
		if err := c.ReleaseLocal(na.Node, na.LocalMB); err != nil {
			return fmt.Errorf("release job %d: %w", ja.Job, err)
		}
		for _, l := range na.Leases {
			if err := c.ReturnLend(l.Lender, l.MB); err != nil {
				return fmt.Errorf("release job %d: %w", ja.Job, err)
			}
		}
		if err := c.EndJob(na.Node); err != nil {
			return fmt.Errorf("release job %d: %w", ja.Job, err)
		}
		ja.totalMB -= na.LocalMB + na.remoteMB
		ja.remoteMB -= na.remoteMB
		na.LocalMB, na.remoteMB = 0, 0
		// Truncate rather than nil out: a re-placed allocation reuses the
		// lease capacity instead of re-growing it from scratch, so repeated
		// adjust/restart cycles stop churning slice allocations.
		na.Leases = na.Leases[:0]
	}
	return nil
}

// GrowLocal adds mb of local memory on the allocation's node i, updating
// both the cluster ledger and the allocation record.
func (ja *JobAllocation) GrowLocal(c *Cluster, i int, mb int64) error {
	if err := c.AllocLocal(ja.PerNode[i].Node, mb); err != nil {
		return err
	}
	ja.PerNode[i].LocalMB += mb
	ja.totalMB += mb
	return nil
}

// ShrinkLocal releases mb of local memory on the allocation's node i.
func (ja *JobAllocation) ShrinkLocal(c *Cluster, i int, mb int64) error {
	if ja.PerNode[i].LocalMB < mb {
		return ErrOverRelease
	}
	if err := c.ReleaseLocal(ja.PerNode[i].Node, mb); err != nil {
		return err
	}
	ja.PerNode[i].LocalMB -= mb
	ja.totalMB -= mb
	return nil
}

// GrowRemote borrows mb from lender for the allocation's node i. Adjacent
// leases from the same lender are merged.
func (ja *JobAllocation) GrowRemote(c *Cluster, i int, lender NodeID, mb int64) error {
	if err := c.Lend(lender, mb); err != nil {
		return err
	}
	na := &ja.PerNode[i]
	na.remoteMB += mb
	ja.totalMB += mb
	ja.remoteMB += mb
	for j := range na.Leases {
		if na.Leases[j].Lender == lender {
			na.Leases[j].MB += mb
			return nil
		}
	}
	na.Leases = append(na.Leases, Lease{Lender: lender, MB: mb})
	return nil
}

// ShrinkRemote returns up to mb of remote memory from the allocation's node
// i, releasing the most recently acquired leases first. It returns the
// amount actually returned (≤ mb, limited by what is held remotely).
func (ja *JobAllocation) ShrinkRemote(c *Cluster, i int, mb int64) (int64, error) {
	na := &ja.PerNode[i]
	var returned int64
	for mb > 0 && len(na.Leases) > 0 {
		last := &na.Leases[len(na.Leases)-1]
		take := min64(mb, last.MB)
		if err := c.ReturnLend(last.Lender, take); err != nil {
			return returned, err
		}
		last.MB -= take
		na.remoteMB -= take
		ja.totalMB -= take
		ja.remoteMB -= take
		mb -= take
		returned += take
		if last.MB == 0 {
			na.Leases = na.Leases[:len(na.Leases)-1]
		}
	}
	return returned, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Clone returns a deep copy of the allocation for simulation forking: the
// fork's resize and release operations must not touch the original's
// per-node records or lease slices.
func (ja *JobAllocation) Clone() *JobAllocation {
	c := *ja
	c.PerNode = append([]NodeAllocation(nil), ja.PerNode...)
	for i := range c.PerNode {
		c.PerNode[i].Leases = append([]Lease(nil), c.PerNode[i].Leases...)
	}
	return &c
}
