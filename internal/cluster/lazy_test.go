package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// dirtyNodes counts the refiles waiting for a flush across all shards.
func (c *Cluster) dirtyNodes() int {
	k := 0
	for i := range c.shards {
		k += len(c.shards[i].free.dirty)
	}
	return k
}

// checkOrderedRead performs one random ordered read — AscendLenders,
// AscendFree, AscendShardLenders or LendersByFreeDesc — stopping the walks
// after a random number of nodes, and compares what it saw with the
// sort-based references. It returns an error instead of failing so
// concurrent branches can call it.
func checkOrderedRead(c *Cluster, rng *rand.Rand) error {
	limit := 1 + rng.Intn(c.Len()+1)
	var got []NodeID
	var bad error
	collect := func(id NodeID, free int64) bool {
		if want := c.Node(id).FreeMB(); free != want && bad == nil {
			bad = fmt.Errorf("node %d yielded free %d, ledger has %d", id, free, want)
		}
		got = append(got, id)
		return len(got) < limit
	}
	var want []NodeID
	var what string
	switch rng.Intn(4) {
	case 0:
		what = "AscendLenders"
		c.AscendLenders(collect)
		want = c.freeOrderRef(0, NodeID(c.Len()), true)
	case 1:
		what = "AscendFree"
		c.AscendFree(collect)
		want = c.freeOrderRef(0, NodeID(c.Len()), false)
	case 2:
		s := rng.Intn(c.ShardCount())
		what = fmt.Sprintf("AscendShardLenders(%d)", s)
		c.AscendShardLenders(s, collect)
		sum := c.Shard(s)
		want = c.freeOrderRef(sum.Base, sum.Base+NodeID(sum.Nodes), true)
	default:
		what = "LendersByFreeDesc"
		exclude := map[NodeID]bool{}
		for i := rng.Intn(4); i > 0; i-- {
			exclude[NodeID(rng.Intn(c.Len()))] = true
		}
		got = append(got, c.LendersByFreeDesc(exclude)...)
		want, limit = c.lendersByFreeDescRef(exclude), c.Len()+1
	}
	if bad != nil {
		return fmt.Errorf("%s: %v", what, bad)
	}
	if len(want) > limit {
		want = want[:limit]
	}
	if !equalIDs(got, want) {
		return fmt.Errorf("%s (limit %d) = %v, reference %v", what, limit, got, want)
	}
	return nil
}

// mutateAndRead interleaves random ledger operations with early-stopping
// ordered reads and an invariant check (which never flushes, so it sees
// the dirty state) before every read.
func mutateAndRead(c *Cluster, rng *rand.Rand, rounds int) error {
	for r := 0; r < rounds; r++ {
		for k := rng.Intn(40); k > 0; k-- {
			if err := applyOp(c, rng, r); err != nil {
				return err
			}
		}
		if err := c.CheckInvariants(); err != nil {
			return err
		}
		if err := checkOrderedRead(c, rng); err != nil {
			return err
		}
	}
	return c.CheckInvariants()
}

// TestLazyOrderDifferential is the oracle for the lazily repaired
// free-memory order: refiles only mark nodes, so every ordered read must
// flush the shards it enters and see exactly the order a fresh sort gives.
// Reads stop early at random, forks are taken while nodes are still dirty,
// and both sides of each fork — and concurrent sibling branches, under
// -race — keep mutating and reading.
func TestLazyOrderDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			c := NewMixed(Config{Nodes: 192, Cores: 8, NormalMB: 2048, LargeFrac: 0.25, Shards: shards})
			if c.ShardCount() != shards {
				t.Fatalf("ShardCount = %d, want %d", c.ShardCount(), shards)
			}
			if err := mutateAndRead(c, rng, 200); err != nil {
				t.Fatal(err)
			}

			// Fork with refiles pending: Fork flushes the receiver, so
			// nothing shared is dirty, and each side then dirties and
			// reads its own copies.
			for c.dirtyNodes() == 0 {
				if err := applyOp(c, rng, 0); err != nil {
					t.Fatal(err)
				}
			}
			f := c.Fork()
			if c.dirtyNodes() != 0 {
				t.Fatalf("Fork left %d dirty nodes on the receiver", c.dirtyNodes())
			}
			for name, cl := range map[string]*Cluster{"base": c, "fork": f} {
				if err := cl.CheckInvariants(); err != nil {
					t.Fatalf("%s right after Fork: %v", name, err)
				}
			}
			if err := mutateAndRead(f, rand.New(rand.NewSource(1)), 100); err != nil {
				t.Fatalf("fork: %v", err)
			}
			if err := mutateAndRead(c, rand.New(rand.NewSource(2)), 100); err != nil {
				t.Fatalf("base: %v", err)
			}

			// Concurrent branches of a dirty base, plus a fork of a fork.
			for c.dirtyNodes() == 0 {
				if err := applyOp(c, rng, 0); err != nil {
					t.Fatal(err)
				}
			}
			all := []*Cluster{c, f}
			for i := 0; i < 4; i++ {
				all = append(all, c.Fork())
			}
			all = append(all, all[len(all)-1].Fork())
			var wg sync.WaitGroup
			errs := make([]error, len(all))
			for i, cl := range all {
				wg.Add(1)
				go func(i int, cl *Cluster) {
					defer wg.Done()
					errs[i] = mutateAndRead(cl, rand.New(rand.NewSource(int64(100+i))), 60)
				}(i, cl)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("branch %d: %v", i, err)
				}
			}
		})
	}
}

// TestLazyOrderReadsSeeDirtyNodes guards the differential above against
// passing vacuously: with the same operation mix, reads must regularly
// find refiles still pending, and a read must leave every shard it entered
// clean.
func TestLazyOrderReadsSeeDirtyNodes(t *testing.T) {
	c := NewSharded(64, 8, 2048, 1)
	rng := rand.New(rand.NewSource(5))
	dirtyReads := 0
	for r := 0; r < 100; r++ {
		for k := 0; k < 10; k++ {
			if err := applyOp(c, rng, r); err != nil {
				t.Fatal(err)
			}
		}
		if c.dirtyNodes() > 0 {
			dirtyReads++
		}
		c.AscendFree(func(NodeID, int64) bool { return false })
		if k := c.dirtyNodes(); k != 0 {
			t.Fatalf("round %d: %d nodes still dirty after an ordered read", r, k)
		}
	}
	if dirtyReads < 50 {
		t.Fatalf("only %d of 100 reads found pending refiles", dirtyReads)
	}
}
