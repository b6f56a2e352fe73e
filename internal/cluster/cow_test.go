package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// applyOps drives a deterministic stream of raw ledger operations. The
// choices depend only on the rng and the cluster's observable state, so two
// clusters in identical states given equal-seeded rngs evolve identically.
func applyOps(t *testing.T, c *Cluster, rng *rand.Rand, nOps int) {
	t.Helper()
	for op := 0; op < nOps; op++ {
		if err := applyOp(c, rng, op); err != nil {
			t.Fatal(err)
		}
	}
}

// applyOp performs one state-guarded random ledger operation (job is the
// job ID a start uses). It returns an error only when the ledger rejects an
// operation its guard admitted, so it is safe to call off the test
// goroutine.
func applyOp(c *Cluster, rng *rand.Rand, job int) error {
	id := NodeID(rng.Intn(c.Len()))
	n := c.Node(id)
	var err error
	switch rng.Intn(6) {
	case 0:
		if n.RunningJob == NoJob && n.IsComputeAvailable() {
			err = c.StartJob(id, job)
		}
	case 1:
		if n.RunningJob != NoJob && n.LocalMB == 0 {
			err = c.EndJob(id)
		}
	case 2:
		if n.RunningJob != NoJob && n.FreeMB() > 0 {
			err = c.AllocLocal(id, rng.Int63n(n.FreeMB())+1)
		}
	case 3:
		if n.LocalMB > 0 {
			err = c.ReleaseLocal(id, rng.Int63n(n.LocalMB)+1)
		}
	case 4:
		if n.FreeMB() > 0 {
			err = c.Lend(id, rng.Int63n(n.FreeMB())+1)
		}
	case 5:
		if n.LentMB > 0 {
			err = c.ReturnLend(id, rng.Int63n(n.LentMB)+1)
		}
	}
	if err != nil {
		return fmt.Errorf("node %d: %w", id, err)
	}
	return nil
}

// fingerprint captures every observable of the ledger: per-node fields, the
// aggregate getters, shard summaries, the idle bitsets, the lender walk and
// the idle selection.
func fingerprint(c *Cluster) string {
	s := fmt.Sprintf("free=%d lent=%d busy=%d idle=%d",
		c.TotalFreeMB(), c.TotalLentMB(), c.BusyNodes(), c.IdleComputeCount())
	nrm, lrg := c.IdleComputeSplit()
	s += fmt.Sprintf(" split=%d/%d", nrm, lrg)
	for i := range c.Nodes() {
		n := c.Node(NodeID(i))
		s += fmt.Sprintf(";%d:%d,%d,%d", n.ID, n.LocalMB, n.LentMB, n.RunningJob)
	}
	for i := 0; i < c.ShardCount(); i++ {
		s += fmt.Sprintf("|%+v", c.Shard(i))
	}
	s += "|idle"
	for _, id := range c.idleIDs() {
		s += fmt.Sprintf(",%d", id)
	}
	s += "|lend"
	c.AscendLenders(func(id NodeID, free int64) bool {
		s += fmt.Sprintf(",%d:%d", id, free)
		return true
	})
	s += "|top"
	for _, id := range c.TopIdle(c.Len(), nil) {
		s += fmt.Sprintf(",%d:%d", id, c.Node(id).FreeMB())
	}
	return s
}

// A fork and its base must evolve exactly like two independently built
// clusters replaying the same operation streams, for every shard layout.
func TestForkDifferential(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				build := func() *Cluster {
					c := NewMixed(Config{Nodes: 24, Cores: 32, NormalMB: 4096, LargeFrac: 0.25, Shards: shards})
					applyOps(t, c, rand.New(rand.NewSource(seed)), 150)
					return c
				}
				base, refBase, refFork := build(), build(), build()
				fork := base.Fork()

				// Divergent suffixes on base and fork; the references replay
				// the same streams on plain unforked clusters.
				applyOps(t, base, rand.New(rand.NewSource(seed+1000)), 150)
				applyOps(t, refBase, rand.New(rand.NewSource(seed+1000)), 150)
				applyOps(t, fork, rand.New(rand.NewSource(seed+2000)), 150)
				applyOps(t, refFork, rand.New(rand.NewSource(seed+2000)), 150)

				if got, want := fingerprint(base), fingerprint(refBase); got != want {
					t.Fatalf("seed %d: base diverged from replay\n got %s\nwant %s", seed, got, want)
				}
				if got, want := fingerprint(fork), fingerprint(refFork); got != want {
					t.Fatalf("seed %d: fork diverged from replay\n got %s\nwant %s", seed, got, want)
				}
				for name, c := range map[string]*Cluster{"base": base, "fork": fork} {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("seed %d: %s: %v", seed, name, err)
					}
				}
			}
		})
	}
}

// Reading through a fork must not materialise anything: the whole point of
// the snapshot is that an untouched branch costs O(S) and nothing more.
func TestForkNoWriteNoCopies(t *testing.T) {
	c := NewSharded(64, 32, 4096, 8)
	applyOps(t, c, rand.New(rand.NewSource(7)), 200)
	f := c.Fork()
	_ = fingerprint(f)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nodes, thaws := f.CowStats(); nodes != 0 || thaws != 0 {
		t.Fatalf("read-only fork copied: nodeCopies=%d shardThaws=%d", nodes, thaws)
	}
	// After scratch has warmed once, reads through the fork are
	// allocation-free, same as an unforked ledger.
	_ = fingerprint(f)
	top := make([]NodeID, 0, f.Len())
	allocs := testing.AllocsPerRun(10, func() {
		f.AscendLenders(func(NodeID, int64) bool { return true })
		top = f.TopIdle(f.Len(), top)
		_ = f.TotalFreeMB()
		_ = f.IdleComputeCount()
	})
	if allocs != 0 {
		t.Fatalf("read path allocates %v/op after warmup", allocs)
	}
}

// A single write to a fork thaws exactly the touched shard (plus the one
// node-slice copy) and leaves the base bit-identical.
func TestForkFirstTouchGranularity(t *testing.T) {
	c := NewSharded(64, 32, 4096, 8)
	applyOps(t, c, rand.New(rand.NewSource(11)), 200)
	before := fingerprint(c)
	f := c.Fork()
	// Pick a node with lendable memory deterministically.
	var target = NodeID(-1)
	f.AscendLenders(func(id NodeID, free int64) bool { target = id; return false })
	if target < 0 {
		t.Fatal("no lender available")
	}
	if err := f.Lend(target, 1); err != nil {
		t.Fatal(err)
	}
	if nodes, thaws := f.CowStats(); nodes != 1 || thaws != 1 {
		t.Fatalf("first touch: nodeCopies=%d shardThaws=%d, want 1/1", nodes, thaws)
	}
	if err := f.ReturnLend(target, 1); err != nil {
		t.Fatal(err)
	}
	if nodes, thaws := f.CowStats(); nodes != 1 || thaws != 1 {
		t.Fatalf("second touch re-copied: nodeCopies=%d shardThaws=%d", nodes, thaws)
	}
	if got := fingerprint(c); got != before {
		t.Fatalf("base mutated by fork writes\n got %s\nwant %s", got, before)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Forks of forks and sibling forks may all mutate concurrently: every writer
// copies before its first write, frozen arrays are only read. Run under
// -race this is the aliasing proof.
func TestForkConcurrentBranches(t *testing.T) {
	c := NewSharded(48, 32, 4096, 6)
	applyOps(t, c, rand.New(rand.NewSource(3)), 200)

	branches := make([]*Cluster, 8)
	for i := range branches {
		branches[i] = c.Fork()
	}
	grand := branches[0].Fork() // fork of a fork

	var wg sync.WaitGroup
	run := func(cl *Cluster, seed int64) {
		defer wg.Done()
		// t.Fatalf must not be called off the test goroutine; applyOps only
		// performs state-guarded ops, so errors here indicate aliasing —
		// surfaced via CheckInvariants below and the race detector.
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			id := NodeID(rng.Intn(cl.Len()))
			n := cl.Node(id)
			switch rng.Intn(4) {
			case 0:
				if n.FreeMB() > 0 {
					_ = cl.Lend(id, rng.Int63n(n.FreeMB())+1)
				}
			case 1:
				if n.LentMB > 0 {
					_ = cl.ReturnLend(id, rng.Int63n(n.LentMB)+1)
				}
			case 2:
				if n.RunningJob == NoJob && n.IsComputeAvailable() {
					_ = cl.StartJob(id, op)
				}
			case 3:
				cl.AscendLenders(func(NodeID, int64) bool { return true })
			}
		}
	}
	all := append(append([]*Cluster{}, branches...), grand, c)
	for i, cl := range all {
		wg.Add(1)
		go run(cl, int64(100+i))
	}
	wg.Wait()
	for i, cl := range all {
		if err := cl.CheckInvariants(); err != nil {
			t.Fatalf("branch %d: %v", i, err)
		}
	}
}

// resum re-adds an allocation's local memory and leases.
func resum(ja *JobAllocation) (total, remote int64) {
	for _, na := range ja.PerNode {
		for _, l := range na.Leases {
			remote += l.MB
		}
		total += na.LocalMB
	}
	return total + remote, remote
}

// checkTotals compares the allocation's cached totals, job and per node,
// with a re-sum of its records.
func checkTotals(ja *JobAllocation) error {
	if err := ja.CheckTotals(); err != nil {
		return err
	}
	if total, remote := resum(ja); ja.TotalMB() != total || ja.RemoteMB() != remote {
		return fmt.Errorf("TotalMB/RemoteMB %d/%d, re-sum %d/%d", ja.TotalMB(), ja.RemoteMB(), total, remote)
	}
	return nil
}

// TestAllocationTotalsSurviveForks forks a ledger while a job holds
// leases, clones the job's allocation with it, and drives grow, shrink and
// release on both sides: each side's cached totals must equal a re-sum
// after every operation, and neither side's operations may move the
// other's.
func TestAllocationTotalsSurviveForks(t *testing.T) {
	for _, shards := range []int{1, 3} {
		c := NewSharded(12, 8, 1024, shards)
		ja := &JobAllocation{Job: 1, PerNode: []NodeAllocation{{Node: 0}, {Node: 1}}}
		for i, na := range ja.PerNode {
			if err := c.StartJob(na.Node, ja.Job); err != nil {
				t.Fatal(err)
			}
			if err := ja.GrowLocal(c, i, 1024); err != nil {
				t.Fatal(err)
			}
			for lender := NodeID(4 + 2*i); lender < NodeID(6+2*i); lender++ {
				if err := ja.GrowRemote(c, i, lender, 300); err != nil {
					t.Fatal(err)
				}
			}
		}
		f, jf := c.Fork(), ja.Clone()
		sides := []struct {
			c  *Cluster
			ja *JobAllocation
		}{{c, ja}, {f, jf}}
		for s, side := range sides {
			other := sides[1-s].ja
			total, remote := other.TotalMB(), other.RemoteMB()
			rng := rand.New(rand.NewSource(int64(s)))
			for op := 0; op < 300; op++ {
				i := rng.Intn(len(side.ja.PerNode))
				na := &side.ja.PerNode[i]
				var err error
				switch rng.Intn(4) {
				case 0:
					if free := side.c.Node(na.Node).FreeMB(); free > 0 {
						err = side.ja.GrowLocal(side.c, i, 1+rng.Int63n(free))
					}
				case 1:
					if na.LocalMB > 0 {
						err = side.ja.ShrinkLocal(side.c, i, 1+rng.Int63n(na.LocalMB))
					}
				case 2:
					lender := NodeID(2 + rng.Intn(side.c.Len()-2))
					if free := side.c.Node(lender).FreeMB(); free > 0 && side.c.Node(lender).RunningJob == NoJob {
						err = side.ja.GrowRemote(side.c, i, lender, 1+rng.Int63n(free))
					}
				case 3:
					_, err = side.ja.ShrinkRemote(side.c, i, rng.Int63n(400))
				}
				if err != nil {
					t.Fatalf("shards=%d side %d op %d: %v", shards, s, op, err)
				}
				if err := checkTotals(side.ja); err != nil {
					t.Fatalf("shards=%d side %d op %d: %v", shards, s, op, err)
				}
			}
			if other.TotalMB() != total || other.RemoteMB() != remote {
				t.Fatalf("shards=%d: side %d moved the other side's totals from %d/%d to %d/%d",
					shards, s, total, remote, other.TotalMB(), other.RemoteMB())
			}
		}
		for s, side := range sides {
			if err := side.ja.Release(side.c); err != nil {
				t.Fatal(err)
			}
			if err := checkTotals(side.ja); err != nil {
				t.Fatalf("shards=%d side %d after release: %v", shards, s, err)
			}
			if side.ja.TotalMB() != 0 || side.c.TotalLentMB() != 0 {
				t.Fatalf("shards=%d side %d after release: %d MB held, %d MB lent", shards, s, side.ja.TotalMB(), side.c.TotalLentMB())
			}
			if err := side.c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
