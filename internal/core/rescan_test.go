package core

import (
	"math"
	"sort"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/sched"
	"dismem/internal/slowdown"
)

// This file holds the full-rescan references for the simulator's
// incremental state. They re-derive everything from the ledger and the
// job table's live entries with no cache and no scratch, and write nothing:
// runVariant compares the live simulator with them after every event.

// rescanDomain is the reference node-to-domain map: one domain over the
// whole fabric under the global model, the node's ledger shard in domains
// mode.
func rescanDomain(s *Simulator, id cluster.NodeID) int {
	if s.cfg.Pressure != PressureDomains {
		return 0
	}
	return s.cl.ShardOf(id)
}

// runningJobs returns the job table's live attempts in ascending job ID
// order, independently of the simulator's running list: table order is
// trace order, and a float sum is not associative.
func runningJobs(s *Simulator) []*runningJob {
	var out []*runningJob
	for i := range s.table {
		if rj := s.table[i].run; rj != nil {
			out = append(out, rj)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].j.ID < out[b].j.ID })
	return out
}

// refreshAllRescan is the reference for the contention refresh: every
// domain's pressure from the flat sum of every running job's per-node
// traffic in (job ID, node) order, and every running job's slowdown as the
// worst per-node slowdown at its node's domain pressure. Under the global
// model the pressure is the fabric model's, as the paper defines it.
func refreshAllRescan(s *Simulator) (rho []float64, slow map[int]float64) {
	nDom := 1
	if s.cfg.Pressure == PressureDomains {
		nDom = s.cl.ShardCount()
	}
	live := runningJobs(s)
	traffic := make([]float64, nDom)
	for _, rj := range live {
		for i := range rj.alloc.PerNode {
			na := &rj.alloc.PerNode[i]
			traffic[rescanDomain(s, na.Node)] += slowdown.NodeTraffic(rj.j.Profile, 1-na.LocalFraction())
		}
	}
	rho = make([]float64, nDom)
	if s.cfg.Pressure == PressureDomains {
		for d := range rho {
			rho[d] = slowdown.PressureBW(traffic[d], s.cfg.PerNodeRemoteBW*float64(s.cl.Shard(d).Nodes))
		}
	} else {
		rho[0] = slowdown.NewModel(s.cfg.Cluster.Nodes, s.cfg.PerNodeRemoteBW).Pressure(traffic[0])
	}
	slow = make(map[int]float64, len(live))
	for _, rj := range live {
		v := 1.0
		for i := range rj.alloc.PerNode {
			na := &rj.alloc.PerNode[i]
			wf := s.remoteFraction(na)
			if wf <= 0 {
				continue // no remote memory: the node runs at slowdown 1
			}
			if x := 1 + wf*rj.j.Profile.Sens.Penalty(rho[rescanDomain(s, na.Node)]); x > v {
				v = x
			}
		}
		slow[rj.j.ID] = v
	}
	return rho, slow
}

// currentResourcesRescan is the reference for currentResources: a walk
// over every node of the ledger.
func currentResourcesRescan(s *Simulator) sched.Resources {
	normalMB := s.cfg.Cluster.NormalMB
	var r sched.Resources
	for _, n := range s.cl.Nodes() {
		if n.IsComputeAvailable() {
			if n.CapacityMB > normalMB {
				r.LargeNodes++
			} else {
				r.NormalNodes++
			}
		}
	}
	r.FreeMB = s.cl.TotalFreeMB()
	return r
}

// releasesRescan is the reference for the release order: the job table's
// live attempts sorted by (start + limit, job ID), each release's node
// classes derived from the ledger node by node.
func releasesRescan(s *Simulator) ([]*runningJob, []sched.Release) {
	live := runningJobs(s)
	sort.SliceStable(live, func(a, b int) bool {
		return live[a].start+live[a].j.LimitSec < live[b].start+live[b].j.LimitSec
	})
	normalMB := s.cfg.Cluster.NormalMB
	out := make([]sched.Release, 0, len(live))
	for _, rj := range live {
		var res sched.Resources
		for i := range rj.alloc.PerNode {
			if s.cl.Node(rj.alloc.PerNode[i].Node).CapacityMB > normalMB {
				res.LargeNodes++
			} else {
				res.NormalNodes++
			}
		}
		res.FreeMB = rj.alloc.TotalMB()
		out = append(out, sched.Release{At: rj.start + rj.j.LimitSec, Res: res})
	}
	return live, out
}

// checkContentionCache compares a running job's contention cache with a
// recomputation from its allocation, bit for bit: between events no job is
// dirty, so a cache that a refresh did not rebuild must still be exact. It
// also checks the invariant an unchanged update target relies on: after
// the job's first memory update, every compute node holds that target.
func checkContentionCache(t *testing.T, s *Simulator, rj *runningJob) {
	t.Helper()
	if rj.dirty {
		t.Fatalf("t=%v job %d: dirty between events", s.eng.Now(), rj.j.ID)
	}
	fracs := make([]float64, len(rj.alloc.PerNode))
	for i := range rj.alloc.PerNode {
		na := &rj.alloc.PerNode[i]
		if want := slowdown.NodeTraffic(rj.j.Profile, 1-na.LocalFraction()); math.Float64bits(rj.nodeTraffic[i]) != math.Float64bits(want) {
			t.Fatalf("t=%v job %d node %d: cached traffic %v, allocation gives %v", s.eng.Now(), rj.j.ID, na.Node, rj.nodeTraffic[i], want)
		}
		fracs[i] = s.remoteFraction(na)
		if rj.target >= 0 && na.TotalMB() != rj.target {
			t.Fatalf("t=%v job %d node %d: holds %d MB, last update target %d", s.eng.Now(), rj.j.ID, na.Node, na.TotalMB(), rj.target)
		}
	}
	if want := slowdown.MaxWeightedFrac(fracs); math.Float64bits(rj.maxFrac) != math.Float64bits(want) {
		t.Fatalf("t=%v job %d: cached max fraction %v, allocation gives %v", s.eng.Now(), rj.j.ID, rj.maxFrac, want)
	}
}

// checkRescanOracles compares the simulator's incremental state with the
// rescan references between events: every running job's slowdown and the
// pressure of every domain with a running resident must match bit for bit,
// every running job's contention cache must match its allocation
// (checkContentionCache), every running job must have a pending finish
// event, the running list must hold the table's live entries in ID order,
// the release order must hold them in (start + limit, ID) order, and the
// resource summary and every release must be equal. It reports whether
// some running job is slowed by contention.
func checkRescanOracles(t *testing.T, s *Simulator) (contended bool) {
	t.Helper()
	rho, slow := refreshAllRescan(s)
	if len(s.domRho) != len(rho) {
		t.Fatalf("t=%v: %d pressure domains, rescan has %d", s.eng.Now(), len(s.domRho), len(rho))
	}
	live := runningJobs(s)
	if len(s.runList) != len(live) {
		t.Fatalf("t=%v: running list has %d jobs, the table %d live", s.eng.Now(), len(s.runList), len(live))
	}
	for i, rj := range live {
		if s.runList[i] != rj {
			t.Fatalf("t=%v: running list[%d] is job %d, want job %d", s.eng.Now(), i, s.runList[i].j.ID, rj.j.ID)
		}
	}
	resident := make([]bool, len(rho))
	for _, rj := range live {
		id := rj.j.ID
		if math.Float64bits(rj.slow) != math.Float64bits(slow[id]) {
			t.Fatalf("t=%v job %d: slowdown %v, rescan %v", s.eng.Now(), id, rj.slow, slow[id])
		}
		if !rj.finishEv.Pending() {
			t.Fatalf("t=%v job %d: running without a finish event", s.eng.Now(), id)
		}
		checkContentionCache(t, s, rj)
		contended = contended || rj.slow > 1
		for i := range rj.alloc.PerNode {
			resident[rescanDomain(s, rj.alloc.PerNode[i].Node)] = true
		}
	}
	for d := range rho {
		if resident[d] && math.Float64bits(s.domRho[d]) != math.Float64bits(rho[d]) {
			t.Fatalf("t=%v domain %d: pressure %v, rescan %v", s.eng.Now(), d, s.domRho[d], rho[d])
		}
	}
	if got, want := s.currentResources(), currentResourcesRescan(s); got != want {
		t.Fatalf("t=%v: resources %+v, rescan %+v", s.eng.Now(), got, want)
	}
	order, want := releasesRescan(s)
	if len(s.ends) != len(order) {
		t.Fatalf("t=%v: release order has %d jobs, the table %d live", s.eng.Now(), len(s.ends), len(order))
	}
	for i := range want {
		if s.ends[i] != order[i] {
			t.Fatalf("t=%v: release order[%d] is job %d, want job %d", s.eng.Now(), i, s.ends[i].j.ID, order[i].j.ID)
		}
		if got := s.ends.Release(i); got != want[i] {
			t.Fatalf("t=%v: release %d (job %d) is %+v, rescan %+v", s.eng.Now(), i, order[i].j.ID, got, want[i])
		}
	}
	return contended
}
