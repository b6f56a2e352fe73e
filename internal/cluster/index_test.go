package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// equalIDs reports whether two NodeID slices are byte-identical (same
// length, same IDs in the same order; nil and empty are equal).
func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialIndexes drives a random but always-valid sequence of
// ledger operations (alloc/release/lend/return/start/end) and after every
// single op asserts that
//
//   - the index-backed AscendLenders walk returns byte-identical orderings
//     to the retained reference implementation, for empty and non-trivial
//     exclude sets,
//   - the bitset-backed IdleComputeNodes matches the reference rescan,
//   - the O(1) aggregates match their O(N) definitions, and
//   - CheckInvariants (which now cross-checks every index against the
//     ledger) still passes.
//
// This is the proof that the incremental indexes cannot change scheduling
// decisions: every consumer reads exactly the orderings the rescans
// produced.
func TestDifferentialIndexes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Mixed capacities so large/normal tie-breaks and the half-capacity
		// memory-node rule are both exercised.
		c := NewMixed(Config{Nodes: 24, Cores: 32, NormalMB: 4096, LargeFrac: 0.25})
		running := map[NodeID]bool{}
		for op := 0; op < 300; op++ {
			id := NodeID(rng.Intn(c.Len()))
			n := c.Node(id)
			switch rng.Intn(6) {
			case 0: // start a job on a compute-available node
				ids := c.IdleComputeNodes()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if err := c.StartJob(id, op); err != nil {
					t.Logf("start: %v", err)
					return false
				}
				running[id] = true
			case 1: // end a running job (after dropping its local memory)
				if !running[id] {
					continue
				}
				if err := c.ReleaseLocal(id, n.LocalMB); err != nil {
					t.Logf("release-all: %v", err)
					return false
				}
				if err := c.EndJob(id); err != nil {
					t.Logf("end: %v", err)
					return false
				}
				delete(running, id)
			case 2: // alloc local on a running node
				if !running[id] || n.FreeMB() == 0 {
					continue
				}
				if err := c.AllocLocal(id, rng.Int63n(n.FreeMB())+1); err != nil {
					t.Logf("alloc: %v", err)
					return false
				}
			case 3: // release part of a local allocation
				if n.LocalMB == 0 {
					continue
				}
				if err := c.ReleaseLocal(id, rng.Int63n(n.LocalMB)+1); err != nil {
					t.Logf("release: %v", err)
					return false
				}
			case 4: // lend (any node with free memory may lend)
				if n.FreeMB() == 0 {
					continue
				}
				if err := c.Lend(id, rng.Int63n(n.FreeMB())+1); err != nil {
					t.Logf("lend: %v", err)
					return false
				}
			case 5: // return part of a lend
				if n.LentMB == 0 {
					continue
				}
				if err := c.ReturnLend(id, rng.Int63n(n.LentMB)+1); err != nil {
					t.Logf("return: %v", err)
					return false
				}
			}

			if err := c.CheckInvariants(); err != nil {
				t.Logf("op %d: invariants: %v", op, err)
				return false
			}
			exclude := map[NodeID]bool{}
			for k := 0; k < rng.Intn(4); k++ {
				exclude[NodeID(rng.Intn(c.Len()))] = true
			}
			got := c.collectLenders(exclude)
			if want := c.lendersByFreeDescRef(exclude); !equalIDs(got, want) {
				t.Logf("op %d: lenders diverged\n got %v\nwant %v", op, got, want)
				return false
			}
			gotNone := c.collectLenders(nil)
			if want := c.lendersByFreeDescRef(nil); !equalIDs(gotNone, want) {
				t.Logf("op %d: lenders (no exclude) diverged", op)
				return false
			}
			gotIdle := append([]NodeID(nil), c.IdleComputeNodes()...)
			if want := c.idleComputeNodesRef(); !equalIDs(gotIdle, want) {
				t.Logf("op %d: idle set diverged\n got %v\nwant %v", op, gotIdle, want)
				return false
			}
			if c.IdleComputeCount() != len(gotIdle) {
				t.Logf("op %d: idle count %d != len %d", op, c.IdleComputeCount(), len(gotIdle))
				return false
			}
			gotN, gotL := c.IdleComputeSplit()
			if wantN, wantL := c.idleComputeSplitRef(); gotN != wantN || gotL != wantL {
				t.Logf("op %d: idle split (%d,%d) != ref (%d,%d)", op, gotN, gotL, wantN, wantL)
				return false
			}
			if gotN+gotL != len(gotIdle) {
				t.Logf("op %d: idle split sum %d != idle count %d", op, gotN+gotL, len(gotIdle))
				return false
			}
			var freeSum, allocSum int64
			busy := 0
			for _, node := range c.Nodes() {
				freeSum += node.FreeMB()
				allocSum += node.LocalMB + node.LentMB
				if node.RunningJob != NoJob {
					busy++
				}
			}
			if c.TotalFreeMB() != freeSum || c.TotalAllocatedMB() != allocSum || c.BusyNodes() != busy {
				t.Logf("op %d: aggregates diverged", op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAscendMatchesLenders checks the streaming walk yields the same
// sequence as the materialised slice, and that early termination works.
func TestAscendMatchesLenders(t *testing.T) {
	c := New(16, 32, 1000)
	for i := 0; i < 16; i++ {
		if err := c.Lend(NodeID(i), int64((i*271)%1000)); err != nil {
			t.Fatal(err)
		}
	}
	want := c.lendersByFreeDescRef(nil)
	var got []NodeID
	c.AscendLenders(func(id NodeID, free int64) bool {
		if free != c.Node(id).FreeMB() {
			t.Fatalf("node %d: yielded free %d, ledger %d", id, free, c.Node(id).FreeMB())
		}
		got = append(got, id)
		return true
	})
	if !equalIDs(got, want) {
		t.Fatalf("AscendLenders = %v, want %v", got, want)
	}

	var first3 []NodeID
	c.AscendLenders(func(id NodeID, _ int64) bool {
		first3 = append(first3, id)
		return len(first3) < 3
	})
	if !equalIDs(first3, want[:3]) {
		t.Fatalf("early-stop walk = %v, want %v", first3, want[:3])
	}

	// AscendFree includes empty nodes and visits every node exactly once.
	if err := c.ReturnLend(3, c.Node(3).LentMB); err != nil {
		t.Fatal(err)
	}
	if err := c.Lend(3, 1000); err != nil { // node 3 now has zero free
		t.Fatal(err)
	}
	seen := map[NodeID]bool{}
	prev := NodeID(-1)
	prevFree := int64(-1)
	c.AscendFree(func(id NodeID, free int64) bool {
		if seen[id] {
			t.Fatalf("node %d visited twice", id)
		}
		seen[id] = true
		if prevFree >= 0 && (free > prevFree || (free == prevFree && id < prev)) {
			t.Fatalf("order violation at node %d", id)
		}
		prev, prevFree = id, free
		return true
	})
	if len(seen) != c.Len() {
		t.Fatalf("AscendFree visited %d of %d nodes", len(seen), c.Len())
	}
}

// TestCapacityOrderIsStable checks the static capacity index against a
// direct computation on a mixed cluster.
func TestCapacityOrderIsStable(t *testing.T) {
	c := NewMixed(Config{Nodes: 10, Cores: 32, NormalMB: 1000, LargeFrac: 0.3})
	order := c.CapacityOrder()
	if len(order) != 10 {
		t.Fatalf("len = %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		ca, cb := c.Node(order[i-1]).CapacityMB, c.Node(order[i]).CapacityMB
		if ca > cb || (ca == cb && order[i-1] >= order[i]) {
			t.Fatalf("order violation at %d: %v", i, order)
		}
	}
}

// TestLeaseCapacityBounded is the allocation-churn regression test: over
// many grow/shrink/release cycles the lease slice of a node allocation must
// not keep growing — its capacity stays bounded by the maximum number of
// simultaneous lenders ever needed.
func TestLeaseCapacityBounded(t *testing.T) {
	c := New(9, 32, 1000)
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	ja := &JobAllocation{Job: 1, PerNode: []NodeAllocation{{Node: 0}}}
	maxCap := 0
	for cycle := 0; cycle < 50; cycle++ {
		// Borrow a little from each of the 8 other nodes...
		for l := NodeID(1); l < 9; l++ {
			if err := ja.GrowRemote(c, 0, l, 10); err != nil {
				t.Fatal(err)
			}
		}
		// ...then return everything, truncating the lease slice.
		if _, err := ja.ShrinkRemote(c, 0, 8*10); err != nil {
			t.Fatal(err)
		}
		if got := cap(ja.PerNode[0].Leases); got > maxCap {
			if cycle > 0 {
				t.Fatalf("cycle %d: lease capacity grew from %d to %d", cycle, maxCap, got)
			}
			maxCap = got
		}
	}
	// Full release keeps the capacity for the next placement of this record.
	for l := NodeID(1); l < 9; l++ {
		if err := ja.GrowRemote(c, 0, l, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := ja.Release(c); err != nil {
		t.Fatal(err)
	}
	if got := cap(ja.PerNode[0].Leases); got != maxCap {
		t.Fatalf("Release dropped lease capacity: %d, want %d", got, maxCap)
	}
}

// BenchmarkLenderRank measures one ledger mutation plus a full lender walk
// (AscendLenders, skipping two excluded nodes) at paper scale (1490 nodes)
// — the most a most-free borrow can walk per adjustment tick.
func BenchmarkLenderRank(b *testing.B) {
	c := New(1490, 32, 65536)
	for i := 0; i < c.Len(); i++ {
		if err := c.Lend(NodeID(i), int64(i%64)*512); err != nil {
			b.Fatal(err)
		}
	}
	exclude := map[NodeID]bool{7: true, 300: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := NodeID(i % c.Len())
		if err := c.Lend(id, 256); err != nil {
			b.Fatal(err)
		}
		n := 0
		c.AscendLenders(func(id NodeID, _ int64) bool {
			if !exclude[id] {
				n++
			}
			return true
		})
		if n == 0 {
			b.Fatal("no lenders")
		}
		if err := c.ReturnLend(id, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLenderRankFirstFit measures the streaming variant: mutate, then
// walk only until a 1 GB deficit is covered — the common case where the
// most-free lender suffices.
func BenchmarkLenderRankFirstFit(b *testing.B) {
	c := New(1490, 32, 65536)
	for i := 0; i < c.Len(); i++ {
		if err := c.Lend(NodeID(i), int64(i%64)*512); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := NodeID(i % c.Len())
		if err := c.Lend(id, 256); err != nil {
			b.Fatal(err)
		}
		need := int64(1024)
		c.AscendLenders(func(_ NodeID, free int64) bool {
			if free > need {
				free = need
			}
			need -= free
			return need > 0
		})
		if need != 0 {
			b.Fatal("deficit not covered")
		}
		if err := c.ReturnLend(id, 256); err != nil {
			b.Fatal(err)
		}
	}
}
