package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/job"
	"dismem/internal/topology"
)

// The sort-based reference planner. For each borrower it sorts every lender
// by its order's key and takes greedily while tracking what each lender has
// left — the planner's definition, with none of its index walks, bitsets
// or sorted debit list. The differential test holds Place and Adjust to it
// lease for lease.

// testOrders is every lender order, the nearest-first one on a torus
// designed for n nodes.
func testOrders(n int) []struct {
	name string
	o    Order
} {
	return []struct {
		name string
		o    Order
	}{
		{"most-free", Order{}},
		{"domain-first", DomainFirst()},
		{"nearest-first", NearestFirst(topology.Design(n))},
	}
}

// refLenders is borrower's lender sequence under o: every node with free
// memory outside own, sorted by the order's key. Domain-first ranks the
// home shard first, then the rest of the cluster when doms is nil or else
// the shards of doms in the order given, and drops lenders outside them.
func refLenders(o Order, cl *cluster.Cluster, borrower cluster.NodeID, own map[cluster.NodeID]bool, doms []int32) []cluster.NodeID {
	group := func(id cluster.NodeID) int { return 0 }
	switch o.kind {
	case nearestFirst:
		group = func(id cluster.NodeID) int { return o.torus.Hops(int(borrower), int(id)) }
	case domainFirst:
		home := cl.ShardOf(borrower)
		group = func(id cluster.NodeID) int {
			s := cl.ShardOf(id)
			if s == home {
				return 0
			}
			if doms == nil {
				return 1
			}
			for k, d := range doms {
				if int(d) == s {
					return 1 + k
				}
			}
			return -1
		}
	}
	var ids []cluster.NodeID
	for _, n := range cl.Nodes() {
		if n.FreeMB() > 0 && !own[n.ID] && group(n.ID) >= 0 {
			ids = append(ids, n.ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if ga, gb := group(ids[a]), group(ids[b]); ga != gb {
			return ga < gb
		}
		if fa, fb := cl.Node(ids[a]).FreeMB(), cl.Node(ids[b]).FreeMB(); fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// refBorrow plans need[i] for borrower nodes[i] in turn and returns the
// leases, stopping at the first borrower left short (ok false).
func refBorrow(o Order, cl *cluster.Cluster, nodes []cluster.NodeID, need []int64, own []cluster.NodeID, doms []int32) (leases [][]cluster.Lease, ok bool) {
	isOwn := map[cluster.NodeID]bool{}
	for _, id := range own {
		isOwn[id] = true
	}
	left := map[cluster.NodeID]int64{}
	for _, n := range cl.Nodes() {
		left[n.ID] = n.FreeMB()
	}
	leases = make([][]cluster.Lease, len(nodes))
	for i, node := range nodes {
		rem := need[i]
		for _, l := range refLenders(o, cl, node, isOwn, doms) {
			if rem == 0 {
				break
			}
			if take := min(rem, left[l]); take > 0 {
				leases[i] = append(leases[i], cluster.Lease{Lender: l, MB: take})
				left[l] -= take
				rem -= take
			}
		}
		if rem > 0 {
			return leases, false
		}
	}
	return leases, true
}

// refPlace is the Zacarias placement by rescan and sort.
func refPlace(o Order, cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool) {
	var idle []cluster.NodeID
	for _, n := range cl.Nodes() {
		if n.IsComputeAvailable() {
			idle = append(idle, n.ID)
		}
	}
	if len(idle) < j.Nodes || cl.TotalFreeMB() < int64(j.Nodes)*j.RequestMB {
		return nil, false
	}
	sort.Slice(idle, func(a, b int) bool {
		if fa, fb := cl.Node(idle[a]).FreeMB(), cl.Node(idle[b]).FreeMB(); fa != fb {
			return fa > fb
		}
		return idle[a] < idle[b]
	})
	chosen := idle[:j.Nodes]
	local := make([]int64, j.Nodes)
	need := make([]int64, j.Nodes)
	for i, id := range chosen {
		local[i] = min(j.RequestMB, cl.Node(id).FreeMB())
		need[i] = j.RequestMB - local[i]
	}
	leases, ok := refBorrow(o, cl, chosen, need, chosen, nil)
	if !ok {
		return nil, false
	}
	ja := &cluster.JobAllocation{Job: j.ID}
	for i, id := range chosen {
		mustStart(cl, id, j.ID)
		ja.PerNode = append(ja.PerNode, cluster.NodeAllocation{Node: id})
		mustGrowLocal(cl, ja, i, local[i])
		for _, l := range leases[i] {
			mustGrowRemote(cl, ja, i, l.Lender, l.MB)
		}
	}
	return ja, true
}

// refAdjust resizes node i: shrink remote first, grow local first and
// borrow the rest, keeping partial growth on ErrOutOfMemory.
func refAdjust(o Order, cl *cluster.Cluster, ja *cluster.JobAllocation, i int, target int64, doms []int32) error {
	na := &ja.PerNode[i]
	cur := na.TotalMB()
	if target < cur {
		back, err := ja.ShrinkRemote(cl, i, cur-target)
		if err != nil {
			return err
		}
		if rest := cur - target - back; rest > 0 {
			return ja.ShrinkLocal(cl, i, rest)
		}
		return nil
	}
	need := target - cur
	if local := min(need, max(cl.Node(na.Node).FreeMB(), 0)); local > 0 {
		if err := ja.GrowLocal(cl, i, local); err != nil {
			return err
		}
		need -= local
	}
	if need == 0 {
		return nil
	}
	leases, ok := refBorrow(o, cl, []cluster.NodeID{na.Node}, []int64{need}, nodeIDs(ja), doms)
	for _, l := range leases[0] {
		if err := ja.GrowRemote(cl, i, l.Lender, l.MB); err != nil {
			return err
		}
	}
	if !ok {
		return ErrOutOfMemory
	}
	return nil
}

// nodeIDs returns the job's compute nodes in allocation order.
func nodeIDs(ja *cluster.JobAllocation) []cluster.NodeID {
	ids := make([]cluster.NodeID, len(ja.PerNode))
	for i := range ja.PerNode {
		ids[i] = ja.PerNode[i].Node
	}
	return ids
}

// domSet is a job's frozen pressure-domain set as the simulator computes it
// at dispatch: the compute nodes' shards plus every placement lender's,
// sorted ascending.
func domSet(cl *cluster.Cluster, ja *cluster.JobAllocation) []int32 {
	seen := map[int32]bool{}
	for _, na := range ja.PerNode {
		seen[int32(cl.ShardOf(na.Node))] = true
		for _, l := range na.Leases {
			seen[int32(cl.ShardOf(l.Lender))] = true
		}
	}
	var doms []int32
	for d := range seen {
		doms = append(doms, d)
	}
	sort.Slice(doms, func(a, b int) bool { return doms[a] < doms[b] })
	return doms
}

// sameLedger compares every node row of two ledgers.
func sameLedger(a, b *cluster.Cluster) error {
	for id := range a.Nodes() {
		na, nb := a.Node(cluster.NodeID(id)), b.Node(cluster.NodeID(id))
		if *na != *nb {
			return fmt.Errorf("node %d: planner %+v, reference %+v", id, *na, *nb)
		}
	}
	return nil
}

// TestPlannerMatchesReference drives random mixed-capacity ledgers with 1,
// 3 and 8 shards through Place and Adjust — growth, shrinking and
// out-of-memory partial growth — and the sort-based reference, under every
// lender order, and requires identical leases and identical ledgers after
// every operation. Half the seeds keep the ledger nearly full, where the
// idle nodes placement picks from are partial lenders and the best
// candidates are also the best lenders, so the planner must skip the
// job's own nodes.
func TestPlannerMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for _, oc := range testOrders(40) {
			t.Run(fmt.Sprintf("%s/shards=%d", oc.name, shards), func(t *testing.T) {
				var seen, seenFull coverage
				for seed := int64(1); seed <= 15; seed++ {
					differential(t, seed, shards, oc.name, false, &seen)
					differential(t, seed, shards, oc.name, true, &seenFull)
				}
				seen.check(t, oc.name == "domain-first" && shards > 1)
				seenFull.check(t, false)
				if seenFull.lenderChosen == 0 || seenFull.idleLender == 0 {
					t.Fatalf("nearly full ledgers exercised too little: %+v", seenFull)
				}
			})
		}
	}
}

// coverage counts the borrowing cases a differential run exercised, so a
// generator that stops borrowing fails loudly instead of passing vacuously.
// lenderChosen counts placements that picked an idle node which had lent
// memory, idleLender leases taken from an idle node the job did not pick.
type coverage struct {
	sharedLender, growBorrow, oom, spill int
	lenderChosen, idleLender             int
}

func (c *coverage) check(t *testing.T, wantSpill bool) {
	t.Helper()
	if c.sharedLender == 0 || c.growBorrow == 0 || c.oom == 0 || (wantSpill && c.spill == 0) {
		t.Fatalf("differential exercised too little: %+v", *c)
	}
}

// placeOverlap counts, for a placement just made on cl, the chosen nodes
// that had lent memory before it and the leases whose lender is still idle.
func placeOverlap(cl *cluster.Cluster, ja *cluster.JobAllocation) (chosen, idle int) {
	for _, na := range ja.PerNode {
		if cl.Node(na.Node).LentMB > 0 {
			chosen++
		}
		for _, l := range na.Leases {
			if cl.Node(l.Lender).IsComputeAvailable() {
				idle++
			}
		}
	}
	return chosen, idle
}

// differential runs one seed's operation sequence. With full, placements
// come twice as often and releases a third as often, so most nodes run
// jobs or lend and the ledger stays nearly full.
func differential(t *testing.T, seed int64, shards int, order string, full bool, seen *coverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(29)
	cfg := cluster.Config{
		Nodes: n, Cores: 32, NormalMB: 1024,
		LargeFrac: []float64{0, 0.25, 0.5}[rng.Intn(3)], Shards: shards,
	}
	var o Order
	for _, oc := range testOrders(n) {
		if oc.name == order {
			o = oc.o
		}
	}
	cl, ref := cluster.NewMixed(cfg), cluster.NewMixed(cfg)
	pol := New(Dynamic, o)
	adj := NewAdjuster(o)
	type running struct {
		got, want *cluster.JobAllocation
		doms      []int32
	}
	var jobs []running
	placeBelow, adjustBelow := 4, 9
	if full {
		placeBelow, adjustBelow = 8, 19
	}
	for op := 0; op < 250; op++ {
		what := ""
		k := rng.Intn(10)
		if full {
			k = rng.Intn(20)
		}
		switch {
		case k < placeBelow || len(jobs) == 0:
			j := testJob(op+1, 1+rng.Intn(5), 200+rng.Int63n(2400))
			what = fmt.Sprintf("place %d×%d MB", j.Nodes, j.RequestMB)
			got, okGot := pol.Place(cl, j)
			want, okWant := refPlace(o, ref, j)
			if okGot != okWant {
				t.Fatalf("seed %d op %d %s: placed %t, reference %t", seed, op, what, okGot, okWant)
			}
			if okGot {
				if !reflect.DeepEqual(got.PerNode, want.PerNode) {
					t.Fatalf("seed %d op %d %s:\n got  %+v\n want %+v", seed, op, what, got.PerNode, want.PerNode)
				}
				seen.sharedLender += sharedLenders(got)
				chosen, idle := placeOverlap(cl, got)
				seen.lenderChosen += chosen
				seen.idleLender += idle
				jobs = append(jobs, running{got, want, domSet(cl, got)})
			}
		case k < adjustBelow:
			r := jobs[rng.Intn(len(jobs))]
			i := rng.Intn(len(r.got.PerNode))
			target := rng.Int63n(3500)
			doms := r.doms
			if rng.Intn(4) == 0 {
				doms = nil // domain-first spills to the global order
			}
			what = fmt.Sprintf("adjust job %d node %d to %d MB (doms %v)", r.got.Job, i, target, doms)
			leasesBefore := len(r.got.PerNode[i].Leases)
			errGot := adj.Adjust(cl, r.got, i, target, doms)
			errWant := refAdjust(o, ref, r.want, i, target, doms)
			if errGot != errWant {
				t.Fatalf("seed %d op %d %s: error %v, reference %v", seed, op, what, errGot, errWant)
			}
			if !reflect.DeepEqual(r.got.PerNode, r.want.PerNode) {
				t.Fatalf("seed %d op %d %s:\n got  %+v\n want %+v", seed, op, what, r.got.PerNode, r.want.PerNode)
			}
			if errGot != nil {
				seen.oom++
			}
			if len(r.got.PerNode[i].Leases) > leasesBefore {
				seen.growBorrow++
				home := cl.ShardOf(r.got.PerNode[i].Node)
				for _, l := range r.got.PerNode[i].Leases[leasesBefore:] {
					if cl.ShardOf(l.Lender) != home {
						seen.spill++
					}
				}
			}
		default:
			k := rng.Intn(len(jobs))
			what = fmt.Sprintf("release job %d", jobs[k].got.Job)
			if err := jobs[k].got.Release(cl); err != nil {
				t.Fatal(err)
			}
			if err := jobs[k].want.Release(ref); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs[:k], jobs[k+1:]...)
		}
		if err := sameLedger(cl, ref); err != nil {
			t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
		}
		if err := cl.CheckInvariants(); err != nil {
			t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
		}
	}
}

// sharedLenders counts the lenders that lease to more than one of the
// job's compute nodes: the placements where earlier takes must debit what
// a lender has left.
func sharedLenders(ja *cluster.JobAllocation) int {
	users := map[cluster.NodeID]int{}
	for _, na := range ja.PerNode {
		for _, l := range na.Leases {
			users[l.Lender]++
		}
	}
	shared := 0
	for _, u := range users {
		if u > 1 {
			shared++
		}
	}
	return shared
}

// refBaselinePlace is the baseline placement as a plain walk of the
// capacity order, with no count-based reject: the first j.Nodes idle nodes
// whose capacity covers the request, each given its whole memory.
func refBaselinePlace(cl *cluster.Cluster, j *job.Job) (*cluster.JobAllocation, bool) {
	var cand []cluster.NodeID
	for _, id := range cl.CapacityOrder() {
		if n := cl.Node(id); n.RunningJob == cluster.NoJob && n.CapacityMB >= j.RequestMB {
			cand = append(cand, id)
		}
	}
	if len(cand) < j.Nodes {
		return nil, false
	}
	ja := &cluster.JobAllocation{Job: j.ID}
	for i, id := range cand[:j.Nodes] {
		mustStart(cl, id, j.ID)
		ja.PerNode = append(ja.PerNode, cluster.NodeAllocation{Node: id})
		mustGrowLocal(cl, ja, i, cl.Node(id).CapacityMB)
	}
	return ja, true
}

// TestBaselineMatchesReference holds the baseline's Place, with its O(1)
// rejects, to the plain capacity-order walk on mixed-capacity ledgers kept
// nearly full, where most placements fail. It also checks the premise the
// rejects rest on: the baseline never lends, so a node is compute-available
// exactly when it runs no job, and the idle count is Len − BusyNodes.
func TestBaselineMatchesReference(t *testing.T) {
	var rejects, largeRejects, places int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := cluster.Config{
			Nodes: 16 + rng.Intn(48), Cores: 32, NormalMB: 1024,
			LargeFrac: []float64{0, 0.15, 0.25, 0.5, 1}[rng.Intn(5)], Shards: 1 + rng.Intn(4),
		}
		cl, ref := cluster.NewMixed(cfg), cluster.NewMixed(cfg)
		pol := New(Baseline, Order{})
		var running [][2]*cluster.JobAllocation
		for op := 0; op < 400; op++ {
			// Place three times as often as release: the ledger runs
			// nearly full.
			if rng.Intn(4) > 0 || len(running) == 0 {
				j := testJob(op+1, 1+rng.Intn(6), 1+rng.Int63n(2*cfg.NormalMB))
				idle := cl.Len() - cl.BusyNodes()
				_, idleLarge := cl.IdleComputeSplit()
				got, okGot := pol.Place(cl, j)
				want, okWant := refBaselinePlace(ref, j)
				if okGot != okWant {
					t.Fatalf("seed %d op %d: %d×%d MB placed %t, reference %t", seed, op, j.Nodes, j.RequestMB, okGot, okWant)
				}
				switch {
				case okGot:
					if !reflect.DeepEqual(got.PerNode, want.PerNode) {
						t.Fatalf("seed %d op %d:\n got  %+v\n want %+v", seed, op, got.PerNode, want.PerNode)
					}
					running = append(running, [2]*cluster.JobAllocation{got, want})
					places++
				case idle < j.Nodes:
					rejects++
				case j.RequestMB > cl.LargeMB() && idleLarge < j.Nodes:
					largeRejects++
				}
			} else {
				k := rng.Intn(len(running))
				if err := running[k][0].Release(cl); err != nil {
					t.Fatal(err)
				}
				if err := running[k][1].Release(ref); err != nil {
					t.Fatal(err)
				}
				running = append(running[:k], running[k+1:]...)
			}
			if err := sameLedger(cl, ref); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			for _, n := range cl.Nodes() {
				if n.IsComputeAvailable() != (n.RunningJob == cluster.NoJob) || n.LentMB != 0 {
					t.Fatalf("seed %d op %d: node %d idle %t with job %d, lent %d MB", seed, op, n.ID, n.IsComputeAvailable(), n.RunningJob, n.LentMB)
				}
			}
			if idle := cl.Len() - cl.BusyNodes(); idle != cl.IdleComputeCount() {
				t.Fatalf("seed %d op %d: Len−BusyNodes %d, idle count %d", seed, op, idle, cl.IdleComputeCount())
			}
		}
	}
	if places == 0 || rejects == 0 || largeRejects == 0 {
		t.Fatalf("differential exercised too little: %d placed, %d idle-count rejects, %d large-class rejects", places, rejects, largeRejects)
	}
}
