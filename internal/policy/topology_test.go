package policy

import (
	"fmt"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/topology"
)

func TestNearestFirstRankerOrdering(t *testing.T) {
	ring, err := topology.New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(8, 32, 1000)
	got := lenderSeq(NearestFirst(ring), cl, 0)
	// Ring distances from 0: 1→1, 7→1, 2→2, 6→2, 3→3, 5→3, 4→4.
	want := []cluster.NodeID{1, 7, 2, 6, 3, 5, 4}
	if len(got) != len(want) {
		t.Fatalf("ranked = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked = %v, want %v", got, want)
		}
	}
}

func TestNearestFirstRankerTieBreaksByFree(t *testing.T) {
	ring, err := topology.New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(8, 32, 1000)
	// Nodes 1 and 7 are both 1 hop from node 0; make 7 freer.
	if err := cl.Lend(1, 400); err != nil {
		t.Fatal(err)
	}
	got := lenderSeq(NearestFirst(ring), cl, 0)
	if got[0] != 7 || got[1] != 1 {
		t.Fatalf("ranked = %v, want node 7 (freer) before node 1", got)
	}
}

func TestNearestFirstRankerSkipsFullNodes(t *testing.T) {
	ring, err := topology.New(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(4, 32, 1000)
	if err := cl.Lend(1, 1000); err != nil { // neighbour has nothing left
		t.Fatal(err)
	}
	got := lenderSeq(NearestFirst(ring), cl, 0)
	for _, id := range got {
		if id == 1 {
			t.Fatalf("full node 1 offered as lender: %v", got)
		}
	}
}

func TestPlaceWithNearestRankerBorrowsLocally(t *testing.T) {
	ring, err := topology.New(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := New(Static, NearestFirst(ring))
	cl := cluster.New(6, 32, 1000)
	ja, ok := pol.Place(cl, testJob(1, 1, 2500))
	if !ok {
		t.Fatal("placement failed")
	}
	borrower := int(ja.PerNode[0].Node)
	for _, l := range ja.PerNode[0].Leases {
		if h := ring.Hops(borrower, int(l.Lender)); h > 1 {
			t.Fatalf("lease at %d hops despite nearest-first ranking", h)
		}
	}
}

func TestZeroOrderIsMostFree(t *testing.T) {
	cl := cluster.New(4, 32, 1000)
	if err := cl.Lend(1, 300); err != nil {
		t.Fatal(err)
	}
	if err := cl.Lend(3, 100); err != nil {
		t.Fatal(err)
	}
	// Free memory: 0→1000, 1→700, 2→1000, 3→900.
	got := lenderSeq(Order{}, cl, 0)
	want := []cluster.NodeID{2, 3, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("zero-Order lenders = %v, want most-free %v", got, want)
	}
}

// lenderSeq is borrower's lender sequence under o with the given own
// nodes (borrower always among them): planning a deficit larger than the
// whole pool takes every lender in turn, so the planned leases list the
// sequence.
func lenderSeq(o Order, cl *cluster.Cluster, borrower cluster.NodeID, own ...cluster.NodeID) []cluster.NodeID {
	var p planner
	p.init(o)
	plans := []plan{{node: borrower, need: cl.TotalCapacityMB() + 1}}
	p.borrow(cl, plans, append(own, borrower), nil)
	var ids []cluster.NodeID
	for _, l := range plans[0].borrow {
		ids = append(ids, l.Lender)
	}
	return ids
}
