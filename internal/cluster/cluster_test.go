package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHomogeneous(t *testing.T) {
	c := New(4, 32, 65536)
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if got := c.TotalCapacityMB(); got != 4*65536 {
		t.Fatalf("capacity = %d, want %d", got, 4*65536)
	}
	if got := c.TotalFreeMB(); got != 4*65536 {
		t.Fatalf("free = %d, want all free", got)
	}
	for _, n := range c.Nodes() {
		if n.Cores != 32 || n.RunningJob != NoJob {
			t.Fatalf("node %d mis-initialised: %+v", n.ID, n)
		}
	}
}

func TestNewMixedLargeFraction(t *testing.T) {
	cases := []struct {
		frac      float64
		wantLarge int
	}{
		{0, 0}, {0.15, 15}, {0.25, 25}, {0.5, 50}, {0.75, 75}, {1, 100},
	}
	for _, tc := range cases {
		c := NewMixed(Config{Nodes: 100, Cores: 32, NormalMB: 65536, LargeFrac: tc.frac})
		large := 0
		for _, n := range c.Nodes() {
			switch n.CapacityMB {
			case 131072:
				large++
			case 65536:
			default:
				t.Fatalf("frac %v: unexpected capacity %d", tc.frac, n.CapacityMB)
			}
		}
		if large != tc.wantLarge {
			t.Fatalf("frac %v: large nodes = %d, want %d", tc.frac, large, tc.wantLarge)
		}
	}
}

func TestStartEndJob(t *testing.T) {
	c := New(2, 32, 1000)
	if err := c.StartJob(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.StartJob(0, 8); !errors.Is(err, ErrNodeBusy) {
		t.Fatalf("double start: err = %v, want ErrNodeBusy", err)
	}
	if c.BusyNodes() != 1 {
		t.Fatalf("busy = %d, want 1", c.BusyNodes())
	}
	if err := c.EndJob(0); err != nil {
		t.Fatal(err)
	}
	if err := c.EndJob(0); !errors.Is(err, ErrNodeIdle) {
		t.Fatalf("double end: err = %v, want ErrNodeIdle", err)
	}
}

func TestLocalAllocationBounds(t *testing.T) {
	c := New(1, 32, 1000)
	if err := c.AllocLocal(0, 600); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocLocal(0, 500); !errors.Is(err, ErrInsufficientMemory) {
		t.Fatalf("overalloc: err = %v, want ErrInsufficientMemory", err)
	}
	if err := c.AllocLocal(0, -1); !errors.Is(err, ErrNegativeAmount) {
		t.Fatalf("negative alloc: err = %v, want ErrNegativeAmount", err)
	}
	if err := c.ReleaseLocal(0, 700); !errors.Is(err, ErrOverRelease) {
		t.Fatalf("over-release: err = %v, want ErrOverRelease", err)
	}
	if err := c.ReleaseLocal(0, 600); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).FreeMB(); got != 1000 {
		t.Fatalf("free = %d after full release, want 1000", got)
	}
}

func TestLendingAndHalfCapacityRule(t *testing.T) {
	c := New(2, 32, 1000)
	// Lend exactly half: node still compute-available.
	if err := c.Lend(0, 500); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).IsComputeAvailable() {
		t.Fatal("node lending exactly half must remain compute-available")
	}
	if c.Node(0).IsMemoryNode() {
		t.Fatal("node lending exactly half is not a memory node")
	}
	// One more MB tips it into memory-node state.
	if err := c.Lend(0, 1); err != nil {
		t.Fatal(err)
	}
	if c.Node(0).IsComputeAvailable() {
		t.Fatal("node lending more than half must not be compute-available")
	}
	if !c.Node(0).IsMemoryNode() {
		t.Fatal("node lending more than half is a memory node")
	}
	// Returning the lend restores compute availability.
	if err := c.ReturnLend(0, 1); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).IsComputeAvailable() {
		t.Fatal("node must regain compute availability after lend returned")
	}
	if err := c.ReturnLend(0, 501); !errors.Is(err, ErrOverRelease) {
		t.Fatalf("over-return: err = %v, want ErrOverRelease", err)
	}
}

func TestLendLimitedByFreeMemory(t *testing.T) {
	c := New(1, 32, 1000)
	if err := c.AllocLocal(0, 800); err != nil {
		t.Fatal(err)
	}
	// A busy node may lend whatever is free, even past half capacity
	// of what remains.
	if err := c.Lend(0, 300); !errors.Is(err, ErrInsufficientMemory) {
		t.Fatalf("lend beyond free: err = %v, want ErrInsufficientMemory", err)
	}
	if err := c.Lend(0, 200); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).FreeMB(); got != 0 {
		t.Fatalf("free = %d, want 0", got)
	}
}

func TestIdleComputeNodesExcludesBusyAndMemoryNodes(t *testing.T) {
	c := New(3, 32, 1000)
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Lend(1, 600); err != nil {
		t.Fatal(err)
	}
	ids := c.IdleComputeNodes()
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("idle compute nodes = %v, want [2]", ids)
	}
}

// collectLenders is AscendLenders collected into a slice, skipping
// exclude: the most-free order the policies' borrow planner walks.
func (c *Cluster) collectLenders(exclude map[NodeID]bool) []NodeID {
	var ids []NodeID
	c.AscendLenders(func(id NodeID, _ int64) bool {
		if !exclude[id] {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

func TestLendersByFreeDesc(t *testing.T) {
	c := New(4, 32, 1000)
	mustAllocLocal(t, c, 0, 900) // free 100
	mustAllocLocal(t, c, 1, 100) // free 900
	mustAllocLocal(t, c, 2, 500) // free 500
	mustAllocLocal(t, c, 3, 1000)
	got := c.collectLenders(map[NodeID]bool{})
	want := []NodeID{1, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("lenders = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lenders = %v, want %v", got, want)
		}
	}
	// Exclusion removes the job's own compute nodes from candidates.
	got = c.collectLenders(map[NodeID]bool{1: true})
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("lenders with exclusion = %v, want [2 0]", got)
	}
}

func TestLendersTieBreakByID(t *testing.T) {
	c := New(3, 32, 1000)
	got := c.collectLenders(nil)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("equal-free lenders = %v, want ascending IDs", got)
	}
}

func mustAllocLocal(t *testing.T, c *Cluster, id NodeID, mb int64) {
	t.Helper()
	if err := c.StartJob(id, int(id)+100); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocLocal(id, mb); err != nil {
		t.Fatal(err)
	}
}

func TestJobAllocationAccounting(t *testing.T) {
	c := New(3, 32, 1000)
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	ja := &JobAllocation{Job: 1, PerNode: []NodeAllocation{{Node: 0}}}
	if err := ja.GrowLocal(c, 0, 700); err != nil {
		t.Fatal(err)
	}
	if err := ja.GrowRemote(c, 0, 1, 400); err != nil {
		t.Fatal(err)
	}
	if err := ja.GrowRemote(c, 0, 2, 100); err != nil {
		t.Fatal(err)
	}
	if got := ja.TotalMB(); got != 1200 {
		t.Fatalf("total = %d, want 1200", got)
	}
	if got := ja.RemoteMB(); got != 500 {
		t.Fatalf("remote = %d, want 500", got)
	}
	if got := ja.PerNode[0].LocalFraction(); got != 700.0/1200.0 {
		t.Fatalf("local fraction = %g, want %g", got, 700.0/1200.0)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ja.Release(c); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFreeMB(); got != 3000 {
		t.Fatalf("free after release = %d, want 3000", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowRemoteMergesSameLender(t *testing.T) {
	c := New(2, 32, 1000)
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	ja := &JobAllocation{Job: 1, PerNode: []NodeAllocation{{Node: 0}}}
	if err := ja.GrowRemote(c, 0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := ja.GrowRemote(c, 0, 1, 200); err != nil {
		t.Fatal(err)
	}
	if len(ja.PerNode[0].Leases) != 1 {
		t.Fatalf("leases = %v, want single merged lease", ja.PerNode[0].Leases)
	}
	if ja.PerNode[0].Leases[0].MB != 300 {
		t.Fatalf("merged lease = %d MB, want 300", ja.PerNode[0].Leases[0].MB)
	}
}

func TestShrinkRemoteLIFO(t *testing.T) {
	c := New(3, 32, 1000)
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	ja := &JobAllocation{Job: 1, PerNode: []NodeAllocation{{Node: 0}}}
	if err := ja.GrowRemote(c, 0, 1, 300); err != nil {
		t.Fatal(err)
	}
	if err := ja.GrowRemote(c, 0, 2, 200); err != nil {
		t.Fatal(err)
	}
	ret, err := ja.ShrinkRemote(c, 0, 350)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 350 {
		t.Fatalf("returned %d, want 350", ret)
	}
	// Lender 2's 200 MB goes first (LIFO), then 150 from lender 1.
	if got := c.Node(2).LentMB; got != 0 {
		t.Fatalf("node 2 lent = %d, want 0", got)
	}
	if got := c.Node(1).LentMB; got != 150 {
		t.Fatalf("node 1 lent = %d, want 150", got)
	}
	// Asking for more than held returns only what exists.
	ret, err = ja.ShrinkRemote(c, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 150 {
		t.Fatalf("returned %d, want remaining 150", ret)
	}
}

func TestShrinkLocalOverRelease(t *testing.T) {
	c := New(1, 32, 1000)
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	ja := &JobAllocation{Job: 1, PerNode: []NodeAllocation{{Node: 0}}}
	if err := ja.GrowLocal(c, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := ja.ShrinkLocal(c, 0, 200); !errors.Is(err, ErrOverRelease) {
		t.Fatalf("err = %v, want ErrOverRelease", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	c := New(1, 32, 1000)
	c.nodes[0].LocalMB = 600
	c.nodes[0].LentMB = 600
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("overcommit not detected")
	}
	c = New(1, 32, 1000)
	c.nodes[0].LocalMB = 100 // idle node with local allocation
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("idle-with-local not detected")
	}
	c = New(1, 32, 1000)
	c.nodes[0].LentMB = -5
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("negative ledger not detected")
	}
}

// Property: a random sequence of valid grow/shrink/release operations never
// violates ledger invariants, and memory is conserved (free + allocated ==
// capacity at every step).
func TestQuickLedgerConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(8, 32, 4096)
		var allocs []*JobAllocation
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0: // place a 1-node job with local + remote memory
				ids := c.IdleComputeNodes()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if c.StartJob(id, op) != nil {
					return false
				}
				ja := &JobAllocation{Job: op, PerNode: []NodeAllocation{{Node: id}}}
				local := rng.Int63n(c.Node(id).FreeMB() + 1)
				if ja.GrowLocal(c, 0, local) != nil {
					return false
				}
				lenders := c.collectLenders(map[NodeID]bool{id: true})
				if len(lenders) > 0 {
					l := lenders[rng.Intn(len(lenders))]
					mb := rng.Int63n(c.Node(l).FreeMB() + 1)
					if ja.GrowRemote(c, 0, l, mb) != nil {
						return false
					}
				}
				allocs = append(allocs, ja)
			case 1: // shrink a random allocation
				if len(allocs) == 0 {
					continue
				}
				ja := allocs[rng.Intn(len(allocs))]
				if _, err := ja.ShrinkRemote(c, 0, rng.Int63n(4096)); err != nil {
					return false
				}
				if ja.PerNode[0].LocalMB > 0 {
					if ja.ShrinkLocal(c, 0, rng.Int63n(ja.PerNode[0].LocalMB+1)) != nil {
						return false
					}
				}
			case 2: // grow a random allocation within what is free
				if len(allocs) == 0 {
					continue
				}
				ja := allocs[rng.Intn(len(allocs))]
				id := ja.PerNode[0].Node
				if free := c.Node(id).FreeMB(); free > 0 {
					if ja.GrowLocal(c, 0, rng.Int63n(free+1)) != nil {
						return false
					}
				}
			case 3: // release a random allocation entirely
				if len(allocs) == 0 {
					continue
				}
				i := rng.Intn(len(allocs))
				if allocs[i].Release(c) != nil {
					return false
				}
				allocs = append(allocs[:i], allocs[i+1:]...)
			}
			if c.CheckInvariants() != nil {
				return false
			}
			if c.TotalFreeMB()+c.TotalAllocatedMB() != c.TotalCapacityMB() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: job allocation bookkeeping mirrors the cluster ledger exactly —
// the sum of all allocations equals TotalAllocatedMB.
func TestQuickAllocationMirrorsLedger(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(6, 32, 2048)
		var allocs []*JobAllocation
		for op := 0; op < 100; op++ {
			ids := c.IdleComputeNodes()
			if len(ids) > 0 && rng.Intn(2) == 0 {
				id := ids[0]
				if c.StartJob(id, op) != nil {
					return false
				}
				ja := &JobAllocation{Job: op, PerNode: []NodeAllocation{{Node: id}}}
				if ja.GrowLocal(c, 0, rng.Int63n(c.Node(id).FreeMB()+1)) != nil {
					return false
				}
				allocs = append(allocs, ja)
			} else if len(allocs) > 0 {
				i := rng.Intn(len(allocs))
				if allocs[i].Release(c) != nil {
					return false
				}
				allocs = append(allocs[:i], allocs[i+1:]...)
			}
			var sum int64
			for _, ja := range allocs {
				sum += ja.TotalMB()
			}
			if sum != c.TotalAllocatedMB() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLedgerOps(b *testing.B) {
	c := New(64, 32, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := NodeID(i % 64)
		if err := c.Lend(id, 1024); err != nil {
			b.Fatal(err)
		}
		if err := c.ReturnLend(id, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTotalLentMBTracksLedger(t *testing.T) {
	c := New(4, 32, 1000)
	if c.TotalLentMB() != 0 {
		t.Fatalf("fresh cluster lent %d MB", c.TotalLentMB())
	}
	if err := c.Lend(0, 300); err != nil {
		t.Fatal(err)
	}
	if err := c.Lend(1, 500); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalLentMB(); got != 800 {
		t.Fatalf("lent total = %d, want 800", got)
	}
	if err := c.ReturnLend(0, 200); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalLentMB(); got != 600 {
		t.Fatalf("lent total = %d, want 600", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReturnLend(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.ReturnLend(1, 500); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalLentMB(); got != 0 {
		t.Fatalf("lent total = %d after full return, want 0", got)
	}
}
