package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

// shardCountsFor returns the shard counts exercised against the serial
// (single-shard) ledger: even splits, uneven tails, one node per shard.
func shardCountsFor(nodes int) []int {
	return []int{1, 2, 3, 5, nodes}
}

// TestShardedLedgerDifferential drives identical random operation sequences
// through clusters built with different shard counts and asserts every
// derived ordering and aggregate stays byte-identical to the single-shard
// (serial) ledger after every mutation. This is the shard-boundary oracle:
// the S-way merge must reproduce the single-shard (free desc, ID asc) order
// exactly, the two-level skip must never hide a lender, and shard count 1
// must be exactly the serial ledger (it runs the same code path).
func TestShardedLedgerDifferential(t *testing.T) {
	const nodes = 23 // odd: exercises an uneven tail shard
	rng := rand.New(rand.NewSource(42))
	var cs []*Cluster
	for _, s := range shardCountsFor(nodes) {
		cs = append(cs, NewSharded(nodes, 8, 2048, s))
	}
	exclude := map[NodeID]bool{3: true, 11: true}
	for step := 0; step < 4000; step++ {
		// Mutate every cluster identically (ops may fail; failures must
		// leave all ledgers untouched and identical).
		n := cs[0].Len()
		id := NodeID(rng.Intn(n))
		mb := int64(rng.Intn(600))
		op := rng.Intn(6)
		// Respect the ledger contract (the simulator never allocates local
		// memory on an idle node nor ends a job before releasing it): remap
		// ops that would violate it rather than skip the step.
		peek := cs[0].Node(id)
		if op == 2 && peek.RunningJob == NoJob {
			op = 0 // start a job instead, then later steps can alloc
		}
		if op == 1 && peek.LocalMB > 0 {
			op = 3 // release local memory before ending the job
		}
		var wantErr bool
		for i, c := range cs {
			var err error
			switch op {
			case 0:
				err = c.StartJob(id, 7)
			case 1:
				err = c.EndJob(id)
			case 2:
				err = c.AllocLocal(id, mb)
			case 3:
				err = c.ReleaseLocal(id, mb)
			case 4:
				err = c.Lend(id, mb)
			default:
				err = c.ReturnLend(id, mb)
			}
			if i == 0 {
				wantErr = err != nil
			} else if (err != nil) != wantErr {
				t.Fatalf("step %d op %d: shard count %d error %v, serial error %t",
					step, op, c.ShardCount(), err, wantErr)
			}
		}
		if step%37 != 0 { // full comparison is O(N log N); sample it
			continue
		}
		ref := cs[0]
		wantLenders := ref.collectLenders(exclude)
		wantRef := ref.lendersByFreeDescRef(exclude)
		if !reflect.DeepEqual(wantLenders, wantRef) {
			t.Fatalf("step %d: single-shard walk diverged from rescan reference", step)
		}
		wantIdle := append([]NodeID(nil), ref.IdleComputeNodes()...)
		var wantFree []NodeID
		ref.AscendFree(func(id NodeID, _ int64) bool {
			wantFree = append(wantFree, id)
			return true
		})
		for _, c := range cs[1:] {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d shards=%d: %v", step, c.ShardCount(), err)
			}
			got := c.collectLenders(exclude)
			if !reflect.DeepEqual(got, wantLenders) {
				t.Fatalf("step %d shards=%d: lender order diverged\n got %v\nwant %v",
					step, c.ShardCount(), got, wantLenders)
			}
			if got := c.IdleComputeNodes(); !reflect.DeepEqual(append([]NodeID(nil), got...), wantIdle) {
				t.Fatalf("step %d shards=%d: idle set diverged", step, c.ShardCount())
			}
			var gotFree []NodeID
			c.AscendFree(func(id NodeID, _ int64) bool {
				gotFree = append(gotFree, id)
				return true
			})
			if !reflect.DeepEqual(gotFree, wantFree) {
				t.Fatalf("step %d shards=%d: AscendFree order diverged", step, c.ShardCount())
			}
			if c.TotalFreeMB() != ref.TotalFreeMB() || c.TotalLentMB() != ref.TotalLentMB() ||
				c.IdleComputeCount() != ref.IdleComputeCount() {
				t.Fatalf("step %d shards=%d: aggregates diverged", step, c.ShardCount())
			}
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("step %d serial: %v", step, err)
		}
	}
}

// TestShardSummaries asserts the per-shard summaries tile the cluster and
// sum to the global aggregates, and that AscendShardLenders visits exactly
// the shard's lenders in (free desc, ID asc) order.
func TestShardSummaries(t *testing.T) {
	c := NewSharded(10, 4, 1000, 4) // shardSize 3: shards of 3,3,3,1
	if got := c.ShardCount(); got != 4 {
		t.Fatalf("ShardCount = %d, want 4", got)
	}
	if err := c.Lend(0, 1000); err != nil { // shard 0 node exhausted
		t.Fatal(err)
	}
	if err := c.AllocLocalForTest(4, 400); err != nil {
		t.Fatal(err)
	}
	var nodes, idle, lenders int
	var freeMB, lentMB int64
	base := NodeID(0)
	for i := 0; i < c.ShardCount(); i++ {
		s := c.Shard(i)
		if s.Base != base {
			t.Fatalf("shard %d base %d, want %d", i, s.Base, base)
		}
		base += NodeID(s.Nodes)
		nodes += s.Nodes
		idle += s.Idle
		lenders += s.Lenders
		freeMB += s.FreeMB
		lentMB += s.LentMB

		var walk []NodeID
		prevFree := int64(-1)
		c.AscendShardLenders(i, func(id NodeID, free int64) bool {
			if free <= 0 {
				t.Fatalf("shard %d: lender walk yielded empty node %d", i, id)
			}
			if prevFree >= 0 && free > prevFree {
				t.Fatalf("shard %d: lender walk not free-descending", i)
			}
			prevFree = free
			walk = append(walk, id)
			return true
		})
		if len(walk) != s.Lenders {
			t.Fatalf("shard %d: walk visited %d lenders, summary says %d", i, len(walk), s.Lenders)
		}
	}
	if nodes != c.Len() || idle != c.IdleComputeCount() ||
		freeMB != c.TotalFreeMB() || lentMB != c.TotalLentMB() {
		t.Fatalf("shard summaries do not tile the cluster aggregates")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// AllocLocalForTest allocates local memory on an idle node by starting and
// keeping a synthetic job — a convenience for summary tests only.
func (c *Cluster) AllocLocalForTest(id NodeID, mb int64) error {
	if err := c.StartJob(id, 99); err != nil {
		return err
	}
	return c.AllocLocal(id, mb)
}

// TestShardedWalkAllocationFree asserts the merge walk allocates nothing at
// steady state: the per-shard cursors, the merge heap and the dirty lists
// are persistent scratch, so a walk that first flushes pending refiles
// allocates nothing either.
func TestShardedWalkAllocationFree(t *testing.T) {
	c := NewSharded(256, 8, 2048, 8)
	for i := 0; i < 64; i++ {
		if err := c.Lend(NodeID(i*3), int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	sink := 0
	walk := func() {
		c.AscendLenders(func(id NodeID, free int64) bool {
			sink++
			return true
		})
	}
	walk() // grow the merge heap once
	if got := testing.AllocsPerRun(20, walk); got != 0 {
		t.Fatalf("sharded AscendLenders allocates %.1f per walk, want 0", got)
	}
	step := 0
	refileAndWalk := func() {
		step++
		id := NodeID(step * 3 % 192)
		if err := c.Lend(id, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.ReturnLend(id+1, c.Node(id+1).LentMB); err != nil {
			t.Fatal(err)
		}
		walk()
	}
	refileAndWalk() // grow the dirty lists once
	if got := testing.AllocsPerRun(20, refileAndWalk); got != 0 {
		t.Fatalf("refile + flushing AscendLenders allocates %.1f per walk, want 0", got)
	}
}

// BenchmarkShardedAscend measures a bounded lender scan (top 8 lenders
// after one refile) across shard counts on a mostly-exhausted cluster —
// the regime the two-level index targets: most shards have nothing to
// lend and are skipped from their summaries alone.
func BenchmarkShardedAscend(b *testing.B) {
	for _, shards := range []int{1, 16, 64} {
		b.Run(map[int]string{1: "shards=1", 16: "shards=16", 64: "shards=64"}[shards], func(b *testing.B) {
			const nodes = 16384
			c := NewSharded(nodes, 8, 2048, shards)
			// Exhaust everything except the first 16 nodes: the surviving
			// lender set is concentrated in the first shard, so with many
			// shards the walk enters one shard and reads S−1 summaries.
			for i := 16; i < nodes; i++ {
				if err := c.Lend(NodeID(i), 2048); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := NodeID(i % nodes)
				n := c.Node(id)
				if n.FreeMB() > 0 {
					if err := c.Lend(id, n.FreeMB()); err != nil {
						b.Fatal(err)
					}
					if err := c.ReturnLend(id, n.LentMB); err != nil {
						b.Fatal(err)
					}
				}
				got := 0
				c.AscendLenders(func(NodeID, int64) bool {
					got++
					return got < 8
				})
			}
		})
	}
}
