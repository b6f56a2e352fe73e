package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkTopIdle compares TopIdle with the sort-based reference for a spread
// of k around the idle count, reusing one destination buffer.
func checkTopIdle(c *Cluster, rng *rand.Rand, buf []NodeID) ([]NodeID, error) {
	idle := c.IdleComputeCount()
	ks := []int{0, 1, 2, 3, 7, idle - 1, idle, idle + 1, c.Len(), 1 + rng.Intn(c.Len())}
	for _, k := range ks {
		if k < 0 {
			continue
		}
		buf = c.TopIdle(k, buf)
		if want := c.topIdleRef(k); !equalIDs(buf, want) {
			return buf, fmt.Errorf("TopIdle(%d) with %d idle = %v, reference %v", k, idle, buf, want)
		}
	}
	return buf, nil
}

// fillNearlyFull leaves most nodes with little or no free memory: busy
// nodes take all but 0–2 quarter-nodes of their free memory, and idle
// nodes lend either exactly half their capacity (still idle, so an idle
// large node ties an untouched normal one at NormalMB free) or a random
// amount up to half (idle partial lenders) or past half (memory nodes).
func fillNearlyFull(c *Cluster, rng *rand.Rand, job int) error {
	for i := 0; i < c.Len(); i++ {
		id := NodeID(i)
		n := c.Node(id)
		if n.RunningJob == NoJob && rng.Intn(3) > 0 && n.IsComputeAvailable() {
			if err := c.StartJob(id, job); err != nil {
				return err
			}
		}
		var err error
		switch free := n.FreeMB(); {
		case free == 0:
		case n.RunningJob != NoJob:
			keep := min(free, int64(rng.Intn(3))*n.CapacityMB/4)
			err = c.AllocLocal(id, free-keep)
		default:
			room := n.CapacityMB/2 - n.LentMB // lendable while staying idle
			lend := rng.Int63n(free + 1)
			if room >= 0 {
				switch rng.Intn(3) {
				case 0:
					lend = room
				case 1:
					lend = rng.Int63n(room + 1)
				}
			}
			if lend > 0 {
				err = c.Lend(id, min(lend, free))
			}
		}
		if err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
	}
	return nil
}

// TestTopIdleMatchesReference holds the bounded idle selection to the
// sort of every node by (free desc, ID asc) filtered by IsComputeAvailable,
// across shard layouts and capacity mixes: on an untouched ledger (where
// the scan stops early), after random ledger operations with refiles
// pending, on nearly full ledgers with idle partial lenders, and with
// equal free values across capacity classes.
func TestTopIdleMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3, 8, 64} {
		for _, large := range []float64{0, 0.25, 1} {
			t.Run(fmt.Sprintf("shards=%d/large=%g", shards, large), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)*10 + int64(large*4)))
				c := NewMixed(Config{Nodes: 192, Cores: 8, NormalMB: 2048, LargeFrac: large, Shards: shards})
				buf, err := checkTopIdle(c, rng, nil)
				if err != nil {
					t.Fatalf("untouched: %v", err)
				}
				for r := 0; r < 60; r++ {
					for k := rng.Intn(40); k > 0; k-- {
						if err := applyOp(c, rng, r); err != nil {
							t.Fatal(err)
						}
					}
					if buf, err = checkTopIdle(c, rng, buf); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
				}
				for r := 0; r < 5; r++ {
					if err := fillNearlyFull(c, rng, 1000+r); err != nil {
						t.Fatal(err)
					}
					if buf, err = checkTopIdle(c, rng, buf); err != nil {
						t.Fatalf("nearly full %d: %v", r, err)
					}
					// Free some of it again: jobs end, loans come back.
					for k := 0; k < 150; k++ {
						if err := applyOp(c, rng, r); err != nil {
							t.Fatal(err)
						}
					}
					if buf, err = checkTopIdle(c, rng, buf); err != nil {
						t.Fatalf("after nearly full %d: %v", r, err)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTopIdleTiesAcrossClasses pins the tie rule on equal free values in
// different capacity classes: an idle large node that lent exactly half
// its memory has NormalMB free, the same as an untouched normal node, and
// the lower ID comes first.
func TestTopIdleTiesAcrossClasses(t *testing.T) {
	c := NewMixed(Config{Nodes: 6, Cores: 8, NormalMB: 1000, LargeFrac: 0.5}) // nodes 0–2 large
	for _, id := range []NodeID{1, 2} {
		if err := c.Lend(id, 1000); err != nil {
			t.Fatal(err)
		}
	}
	// Free: 0:2000 1:1000 2:1000 3:1000 4:1000 5:1000; all idle.
	if got, want := c.TopIdle(3, nil), []NodeID{0, 1, 2}; !equalIDs(got, want) {
		t.Fatalf("TopIdle(3) = %v, want %v", got, want)
	}
	if err := c.StartJob(0, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := c.TopIdle(4, nil), []NodeID{1, 2, 3, 4}; !equalIDs(got, want) {
		t.Fatalf("TopIdle(4) = %v, want %v", got, want)
	}
}

// TestTopIdleAllocationFree asserts a warm selection allocates nothing.
func TestTopIdleAllocationFree(t *testing.T) {
	c := NewMixed(Config{Nodes: 512, Cores: 8, NormalMB: 2048, LargeFrac: 0.25, Shards: 4})
	if err := fillNearlyFull(c, rand.New(rand.NewSource(1)), 1); err != nil {
		t.Fatal(err)
	}
	buf := c.TopIdle(c.Len(), nil)
	if got := testing.AllocsPerRun(20, func() { buf = c.TopIdle(c.Len(), buf) }); got != 0 {
		t.Fatalf("warm TopIdle allocates %.1f per call, want 0", got)
	}
}

// BenchmarkTopIdle measures the placement's node selection of an 8-node
// job on a 100k-node ledger: untouched, where the scan stops after the
// first 8 idle nodes, and nearly full, where it scans every idle node.
func BenchmarkTopIdle(b *testing.B) {
	for _, full := range []bool{false, true} {
		b.Run(fmt.Sprintf("nearlyFull=%t", full), func(b *testing.B) {
			c := NewMixed(Config{Nodes: 100_000, Cores: 32, NormalMB: 131072, LargeFrac: 0.25})
			if full {
				if err := fillNearlyFull(c, rand.New(rand.NewSource(1)), 1); err != nil {
					b.Fatal(err)
				}
			}
			buf := c.TopIdle(8, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = c.TopIdle(8, buf)
			}
		})
	}
}
