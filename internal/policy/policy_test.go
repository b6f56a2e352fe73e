package policy

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dismem/internal/cluster"
	"dismem/internal/job"
)

func testJob(id, nodes int, reqMB int64) *job.Job {
	return &job.Job{ID: id, Nodes: nodes, RequestMB: reqMB}
}

// TestParseKind: every Kind parses back from what String prints, in any
// case; the empty name and unknown names are rejected with the text that
// spec and branch errors quote.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Baseline, Static, Dynamic} {
		for _, name := range []string{k.String(), strings.ToUpper(k.String()),
			strings.ToUpper(k.String()[:1]) + k.String()[1:]} {
			got, err := ParseKind(name)
			if err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	for name, want := range map[string]string{
		"":        `unknown policy "" (want baseline, static, or dynamic)`,
		"magic":   `unknown policy "magic" (want baseline, static, or dynamic)`,
		"unknown": `unknown policy "unknown" (want baseline, static, or dynamic)`,
		"static ": `unknown policy "static " (want baseline, static, or dynamic)`,
	} {
		_, err := ParseKind(name)
		if err == nil || err.Error() != want {
			t.Errorf("ParseKind(%q) error = %v, want %q", name, err, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Baseline.String() != "baseline" || Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatal("kind names do not match the paper")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind not handled")
	}
}

func TestNewReturnsMatchingKinds(t *testing.T) {
	for _, k := range []Kind{Baseline, Static, Dynamic} {
		p := New(k, Order{})
		if p.Kind() != k {
			t.Fatalf("New(%v).Kind() = %v", k, p.Kind())
		}
		if p.Tracks() != (k == Dynamic) {
			t.Fatalf("New(%v).Tracks() = %v", k, p.Tracks())
		}
	}
}

func TestBaselineCanEverRun(t *testing.T) {
	cl := cluster.NewMixed(cluster.Config{Nodes: 4, Cores: 32, NormalMB: 1000, LargeFrac: 0.5})
	p := New(Baseline, Order{})
	if !p.CanEverRun(cl, testJob(1, 2, 2000)) {
		t.Fatal("2 large nodes exist; 2x2000MB must be runnable")
	}
	if p.CanEverRun(cl, testJob(2, 3, 2000)) {
		t.Fatal("only 2 large nodes exist; 3x2000MB must be unrunnable")
	}
	if p.CanEverRun(cl, testJob(3, 1, 2001)) {
		t.Fatal("request above the largest node must be unrunnable")
	}
	if !p.CanEverRun(cl, testJob(4, 4, 500)) {
		t.Fatal("4 nodes of 500MB must be runnable")
	}
}

func TestBaselinePlaceExclusiveWholeNode(t *testing.T) {
	cl := cluster.New(3, 32, 1000)
	p := New(Baseline, Order{})
	ja, ok := p.Place(cl, testJob(1, 2, 400))
	if !ok {
		t.Fatal("placement failed")
	}
	// Baseline gives the job the whole node memory.
	for _, na := range ja.PerNode {
		if na.LocalMB != 1000 {
			t.Fatalf("node %d local = %d, want full 1000", na.Node, na.LocalMB)
		}
		if len(na.Leases) != 0 {
			t.Fatal("baseline must not borrow")
		}
	}
	if cl.TotalFreeMB() != 1000 {
		t.Fatalf("free = %d, want 1000 (one idle node)", cl.TotalFreeMB())
	}
}

func TestBaselinePrefersSmallNodes(t *testing.T) {
	cl := cluster.NewMixed(cluster.Config{Nodes: 4, Cores: 32, NormalMB: 1000, LargeFrac: 0.5})
	p := New(Baseline, Order{})
	ja, ok := p.Place(cl, testJob(1, 2, 500))
	if !ok {
		t.Fatal("placement failed")
	}
	for _, na := range ja.PerNode {
		if cl.Node(na.Node).CapacityMB != 1000 {
			t.Fatalf("small job placed on large node %d", na.Node)
		}
	}
}

func TestBaselineRejectsWhenBusy(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	p := New(Baseline, Order{})
	if _, ok := p.Place(cl, testJob(1, 2, 100)); !ok {
		t.Fatal("first placement failed")
	}
	if _, ok := p.Place(cl, testJob(2, 1, 100)); ok {
		t.Fatal("placement on a fully busy cluster succeeded")
	}
}

func TestStaticCanEverRunUsesPool(t *testing.T) {
	cl := cluster.New(4, 32, 1000) // 4000 MB pool
	p := New(Static, Order{})
	if !p.CanEverRun(cl, testJob(1, 1, 3000)) {
		t.Fatal("3000MB on one node is borrowable from a 4000MB pool")
	}
	if p.CanEverRun(cl, testJob(2, 2, 2500)) {
		t.Fatal("5000MB total exceeds the 4000MB pool")
	}
	if p.CanEverRun(cl, testJob(3, 5, 100)) {
		t.Fatal("5 nodes on a 4-node cluster")
	}
}

// TestDisaggCanEverRunOwnNodesLendNothing: a job's compute nodes lend
// nothing to its other nodes, so memory they hold above the request does
// not count. On 3×1000 + 2×2000 MB, 4×1700 MB fits the 7000 MB pool but
// not the 6700 MB its compute nodes leave within its reach, while 4×1500 MB
// can run, and places on the empty cluster.
func TestDisaggCanEverRunOwnNodesLendNothing(t *testing.T) {
	cl := cluster.NewMixed(cluster.Config{Nodes: 5, Cores: 32, NormalMB: 1000, LargeFrac: 0.4})
	for _, k := range []Kind{Static, Dynamic} {
		p := New(k, Order{})
		if p.CanEverRun(cl, testJob(1, 4, 1700)) {
			t.Fatalf("%v: 4x1700MB runnable, but its nodes can reach only 6700MB", k)
		}
		if !p.CanEverRun(cl, testJob(2, 4, 1500)) {
			t.Fatalf("%v: 4x1500MB reported unrunnable", k)
		}
	}
	if _, ok := New(Dynamic, Order{}).Place(cl, testJob(2, 4, 1500)); !ok {
		t.Fatal("4x1500MB does not place on the empty cluster")
	}
}

func TestStaticPlaceWithoutBorrowing(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	p := New(Static, Order{})
	ja, ok := p.Place(cl, testJob(1, 1, 800))
	if !ok {
		t.Fatal("placement failed")
	}
	na := ja.PerNode[0]
	if na.LocalMB != 800 || len(na.Leases) != 0 {
		t.Fatalf("allocation = %+v, want 800 local / no leases", na)
	}
	// Unlike baseline, static only reserves the request.
	if got := cl.Node(na.Node).FreeMB(); got != 200 {
		t.Fatalf("node free = %d, want 200", got)
	}
}

func TestStaticPlaceBorrowsDeficit(t *testing.T) {
	cl := cluster.New(3, 32, 1000)
	p := New(Static, Order{})
	ja, ok := p.Place(cl, testJob(1, 1, 1500))
	if !ok {
		t.Fatal("placement failed")
	}
	na := ja.PerNode[0]
	if na.LocalMB != 1000 {
		t.Fatalf("local = %d, want full node 1000", na.LocalMB)
	}
	if na.RemoteMB() != 500 {
		t.Fatalf("remote = %d, want 500", na.RemoteMB())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticLenderBecomesMemoryNode(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	p := New(Static, Order{})
	// Job borrows 600 from the second node, pushing it past half.
	_, ok := p.Place(cl, testJob(1, 1, 1600))
	if !ok {
		t.Fatal("placement failed")
	}
	if n := cl.Node(1); n.LentMB <= n.CapacityMB/2 || n.IsComputeAvailable() {
		t.Fatal("lender past half capacity must become a memory node")
	}
	// Next 1-node job cannot start: node 1 is a memory node.
	if _, ok := p.Place(cl, testJob(2, 1, 100)); ok {
		t.Fatal("job placed on a memory node")
	}
}

func TestStaticPlaceFailsWhenPoolExhausted(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	p := New(Static, Order{})
	if _, ok := p.Place(cl, testJob(1, 1, 2500)); ok {
		t.Fatal("placement exceeding total pool succeeded")
	}
	// Cluster must be untouched.
	if cl.TotalFreeMB() != 2000 || cl.BusyNodes() != 0 {
		t.Fatal("failed placement modified the cluster")
	}
}

func TestStaticMultiNodePlacement(t *testing.T) {
	cl := cluster.New(4, 32, 1000)
	p := New(Static, Order{})
	ja, ok := p.Place(cl, testJob(1, 3, 1200))
	if !ok {
		t.Fatal("placement failed")
	}
	if got := ja.TotalMB(); got != 3600 {
		t.Fatalf("total = %d, want 3600", got)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The single remaining node lent 600 to the three compute nodes
	// (3600 total - 3000 local capacity).
	if got := ja.RemoteMB(); got != 600 {
		t.Fatalf("remote = %d, want 600", got)
	}
}

func TestDynamicPlaceMatchesStatic(t *testing.T) {
	j := testJob(1, 2, 900)
	clS := cluster.New(4, 32, 1000)
	clD := cluster.New(4, 32, 1000)
	jaS, okS := New(Static, Order{}).Place(clS, j)
	jaD, okD := New(Dynamic, Order{}).Place(clD, j)
	if !okS || !okD {
		t.Fatal("placement failed")
	}
	if jaS.TotalMB() != jaD.TotalMB() || jaS.RemoteMB() != jaD.RemoteMB() {
		t.Fatal("dynamic initial placement differs from static")
	}
}

func TestAdjustShrinkRemoteFirst(t *testing.T) {
	cl := cluster.New(3, 32, 1000)
	ja, ok := New(Dynamic, Order{}).Place(cl, testJob(1, 1, 1500))
	if !ok {
		t.Fatal("placement failed")
	}
	// 1000 local + 500 remote; shrink to 800: all remote returned first,
	// then 200 local.
	if err := Adjust(cl, ja, 0, 800); err != nil {
		t.Fatal(err)
	}
	na := ja.PerNode[0]
	if na.RemoteMB() != 0 {
		t.Fatalf("remote = %d, want 0 (remote deallocated first)", na.RemoteMB())
	}
	if na.LocalMB != 800 {
		t.Fatalf("local = %d, want 800", na.LocalMB)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustGrowLocalFirst(t *testing.T) {
	cl := cluster.New(3, 32, 1000)
	ja, ok := New(Dynamic, Order{}).Place(cl, testJob(1, 1, 500))
	if !ok {
		t.Fatal("placement failed")
	}
	// Grow to 1400: 500 more local fills the node, 400 borrowed.
	if err := Adjust(cl, ja, 0, 1400); err != nil {
		t.Fatal(err)
	}
	na := ja.PerNode[0]
	if na.LocalMB != 1000 {
		t.Fatalf("local = %d, want 1000 (local first)", na.LocalMB)
	}
	if na.RemoteMB() != 400 {
		t.Fatalf("remote = %d, want 400", na.RemoteMB())
	}
}

func TestAdjustNoChange(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	ja, _ := New(Dynamic, Order{}).Place(cl, testJob(1, 1, 500))
	before := cl.TotalFreeMB()
	if err := Adjust(cl, ja, 0, 500); err != nil {
		t.Fatal(err)
	}
	if cl.TotalFreeMB() != before {
		t.Fatal("no-op adjust changed the ledger")
	}
	if err := Adjust(cl, ja, 0, -1); !errors.Is(err, cluster.ErrNegativeAmount) {
		t.Fatalf("negative target: err = %v", err)
	}
}

func TestAdjustOutOfMemory(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	ja, ok := New(Dynamic, Order{}).Place(cl, testJob(1, 1, 1000))
	if !ok {
		t.Fatal("placement failed")
	}
	// Consume the other node's memory with a second job.
	ja2, ok := New(Dynamic, Order{}).Place(cl, testJob(2, 1, 900))
	if !ok {
		t.Fatal("second placement failed")
	}
	_ = ja2
	// Job 1 wants to grow beyond what remains (only 100 free anywhere).
	err := Adjust(cl, ja, 0, 1200)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Partial growth then release must leave a clean ledger.
	if err := ja.Release(cl); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustGrowToExactPoolBoundary(t *testing.T) {
	cl := cluster.New(2, 32, 1000)
	ja, _ := New(Dynamic, Order{}).Place(cl, testJob(1, 1, 1000))
	// Exactly the remaining 1000 (the whole second node) is available.
	if err := Adjust(cl, ja, 0, 2000); err != nil {
		t.Fatal(err)
	}
	if cl.TotalFreeMB() != 0 {
		t.Fatalf("free = %d, want 0", cl.TotalFreeMB())
	}
}

// Property: under any sequence of placements, usage adjustments, and
// releases, cluster invariants hold and total memory is conserved, for
// every lender order.
func TestQuickPolicyLifecycleInvariants(t *testing.T) {
	for _, oc := range testOrders(10) {
		t.Run(oc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				cl := cluster.NewSharded(10, 32, 2048, 3)
				pol := New(Dynamic, oc.o)
				adj := NewAdjuster(oc.o)
				type running struct {
					ja   *cluster.JobAllocation
					doms []int32
				}
				var jobs []running
				nextID := 1
				for op := 0; op < 300; op++ {
					switch rng.Intn(3) {
					case 0:
						j := testJob(nextID, 1+rng.Intn(4), rng.Int63n(3000))
						nextID++
						if ja, ok := pol.Place(cl, j); ok {
							jobs = append(jobs, running{ja, domSet(cl, ja)})
						}
					case 1:
						if len(jobs) == 0 {
							continue
						}
						r := jobs[rng.Intn(len(jobs))]
						i := rng.Intn(len(r.ja.PerNode))
						target := rng.Int63n(3000)
						if err := adj.Adjust(cl, r.ja, i, target, r.doms); err != nil &&
							!errors.Is(err, ErrOutOfMemory) {
							return false
						}
					case 2:
						if len(jobs) == 0 {
							continue
						}
						i := rng.Intn(len(jobs))
						if jobs[i].ja.Release(cl) != nil {
							return false
						}
						jobs = append(jobs[:i], jobs[i+1:]...)
					}
					if cl.CheckInvariants() != nil {
						return false
					}
					var held int64
					for id := range cl.Nodes() {
						n := cl.Node(cluster.NodeID(id))
						held += n.LocalMB + n.LentMB
					}
					if cl.TotalFreeMB()+held != cl.TotalCapacityMB() {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: a successful placement always allocates exactly nodes×request MB
// for the disaggregated policies, and placement failure leaves the ledger
// untouched, for every lender order.
func TestQuickPlacementExactness(t *testing.T) {
	for _, oc := range testOrders(8) {
		t.Run(oc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				cl := cluster.NewMixed(cluster.Config{
					Nodes: 8, Cores: 32, NormalMB: 1024, LargeFrac: 0.25, Shards: 3,
				})
				pol := New(Static, oc.o)
				var placed []*cluster.JobAllocation
				for id := 1; id <= 30; id++ {
					j := testJob(id, 1+rng.Intn(3), rng.Int63n(2500))
					freeBefore := cl.TotalFreeMB()
					busyBefore := cl.BusyNodes()
					ja, ok := pol.Place(cl, j)
					if !ok {
						if cl.TotalFreeMB() != freeBefore || cl.BusyNodes() != busyBefore {
							return false
						}
						continue
					}
					if ja.TotalMB() != j.TotalRequestMB() {
						return false
					}
					placed = append(placed, ja)
				}
				for _, ja := range placed {
					if ja.Release(cl) != nil {
						return false
					}
				}
				return cl.TotalFreeMB() == cl.TotalCapacityMB() && cl.CheckInvariants() == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWarmPlanAndAdjustAllocationFree: once its scratch has grown, the
// borrow planner allocates nothing under any lender order — neither the
// planning half of Place (all of Place but the returned allocation) nor a
// borrowing grow and the shrink back.
func TestWarmPlanAndAdjustAllocationFree(t *testing.T) {
	for _, oc := range testOrders(64) {
		t.Run(oc.name, func(t *testing.T) {
			cl := cluster.NewSharded(64, 32, 1000, 4)
			pol := New(Dynamic, oc.o).(*disaggPolicy)
			adj := NewAdjuster(oc.o)
			ja, ok := pol.Place(cl, testJob(1, 4, 1500))
			if !ok {
				t.Fatal("placement failed")
			}
			doms := domSet(cl, ja)
			big := testJob(2, 8, 1800)
			cycle := func() {
				if !pol.choose(cl, big) {
					t.Fatal("no plan for a job that fits")
				}
				if err := adj.Adjust(cl, ja, 0, 2600, doms); err != nil {
					t.Fatal(err)
				}
				if err := adj.Adjust(cl, ja, 0, 1500, doms); err != nil {
					t.Fatal(err)
				}
			}
			cycle()
			if got := testing.AllocsPerRun(50, cycle); got != 0 {
				t.Fatalf("warm plan+grow+shrink allocates %v times", got)
			}
		})
	}
}

// TestWarmPlaceAllocatesOnlyItsResult asserts a warm Place allocates the
// allocation it returns and nothing else: the JobAllocation, its PerNode
// array and one lease array per borrowing node. Each chosen node borrows
// from a single lender here, so its lease array is one allocation.
func TestWarmPlaceAllocatesOnlyItsResult(t *testing.T) {
	for _, oc := range testOrders(64) {
		t.Run(oc.name, func(t *testing.T) {
			cl := cluster.NewSharded(64, 32, 1000, 4)
			pol := New(Dynamic, oc.o)
			j := testJob(1, 4, 1500)
			var want float64
			cycle := func() {
				ja, ok := pol.Place(cl, j)
				if !ok {
					t.Fatal("placement failed")
				}
				want = 2
				for _, na := range ja.PerNode {
					if len(na.Leases) > 1 {
						t.Fatalf("node %d borrows from %d lenders, want at most 1", na.Node, len(na.Leases))
					}
					want += float64(len(na.Leases))
				}
				if err := ja.Release(cl); err != nil {
					t.Fatal(err)
				}
			}
			cycle()
			if want != 6 {
				t.Fatalf("placement borrows on %v nodes, want 4", want-2)
			}
			if got := testing.AllocsPerRun(50, cycle); got != want {
				t.Fatalf("warm Place+Release allocates %v times, its result %v", got, want)
			}
		})
	}
}

func BenchmarkStaticPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := cluster.New(128, 32, 65536)
		pol := New(Static, Order{})
		for id := 1; id <= 32; id++ {
			if _, ok := pol.Place(cl, testJob(id, 4, 96*1024)); !ok {
				break
			}
		}
	}
}

func BenchmarkDynamicAdjust(b *testing.B) {
	cl := cluster.New(64, 32, 65536)
	pol := New(Dynamic, Order{})
	var allocs []*cluster.JobAllocation
	for id := 1; id <= 16; id++ {
		ja, ok := pol.Place(cl, testJob(id, 2, 80*1024))
		if !ok {
			b.Fatal("placement failed")
		}
		allocs = append(allocs, ja)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ja := allocs[i%len(allocs)]
		target := int64(20*1024 + (i%5)*15*1024)
		for k := range ja.PerNode {
			if err := Adjust(cl, ja, k, target); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlaceDynamic measures one place/release cycle of the dynamic
// policy at paper scale (1490 nodes), on a cluster busy enough that most
// placements must borrow remote memory. This is the static/dynamic
// placement hot path the scheduler runs on every tick.
func BenchmarkPlaceDynamic(b *testing.B) {
	cl := cluster.New(1490, 32, 65536)
	// Occupy most of the cluster so candidate selection and borrow planning
	// both do real work: jobs of 8 nodes at 48 GB/node leave a thin pool.
	p := New(Dynamic, Order{})
	var held []*cluster.JobAllocation
	id := 0
	for {
		id++
		ja, ok := p.Place(cl, testJob(id, 8, 49152))
		if !ok {
			break
		}
		held = append(held, ja)
	}
	if len(held) == 0 {
		b.Fatal("setup placed nothing")
	}
	// Free one slot; the benchmark re-places into it repeatedly.
	if err := held[len(held)-1].Release(cl); err != nil {
		b.Fatal(err)
	}
	j := testJob(id+1, 8, 49152)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ja, ok := p.Place(cl, j)
		if !ok {
			b.Fatal("placement failed")
		}
		if err := ja.Release(cl); err != nil {
			b.Fatal(err)
		}
	}
}
