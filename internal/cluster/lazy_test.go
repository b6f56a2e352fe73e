package cluster

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
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
// TopIdle, AscendShardLenders, or a full AscendLenders walk skipping a
// random exclusion set — stopping the first three after a random number of
// nodes, and compares what it saw with the sort-based references. TopIdle
// must also leave every pending refile pending. It returns an error instead of failing so
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
		what = "TopIdle"
		dirty := c.dirtyNodes()
		got = c.TopIdle(limit, nil)
		want = c.topIdleRef(limit)
		if c.dirtyNodes() != dirty {
			bad = fmt.Errorf("flushed: %d dirty nodes before, %d after", dirty, c.dirtyNodes())
		}
	case 2:
		s := rng.Intn(c.ShardCount())
		what = fmt.Sprintf("AscendShardLenders(%d)", s)
		c.AscendShardLenders(s, collect)
		sum := c.Shard(s)
		want = c.freeOrderRef(sum.Base, sum.Base+NodeID(sum.Nodes), true)
	default:
		what = "AscendLenders with exclusions"
		exclude := map[NodeID]bool{}
		for i := rng.Intn(4); i > 0; i-- {
			exclude[NodeID(rng.Intn(c.Len()))] = true
		}
		got = append(got, c.collectLenders(exclude)...)
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

// dirtyWholeShard refiles every node of shard s without flushing: a node
// with free memory lends it down to 0, 256 or 512 MB (whichever is below
// what it has), and an exhausted node gets its loans or its local memory
// back, so most keys land on a few shared values.
func dirtyWholeShard(c *Cluster, s int, rng *rand.Rand) error {
	sum := c.Shard(s)
	for id := sum.Base; id < sum.Base+NodeID(sum.Nodes); id++ {
		n := c.Node(id)
		var err error
		switch free := n.FreeMB(); {
		case free == 0 && n.LentMB > 0:
			err = c.ReturnLend(id, n.LentMB)
		case free == 0:
			err = c.ReleaseLocal(id, n.LocalMB)
		default:
			target := int64(rng.Intn(3)) * 256
			if target >= free {
				target = 0
			}
			err = c.Lend(id, free-target)
		}
		if err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
	}
	if k := len(c.shards[s].free.dirty); k != sum.Nodes {
		return fmt.Errorf("shard %d: %d of %d nodes dirty", s, k, sum.Nodes)
	}
	return nil
}

// TestLazyOrderDifferential is the oracle for the lazily repaired
// free-memory order: refiles only mark nodes, so every ordered read must
// flush the shards it enters and see exactly the order a fresh sort gives.
// Reads stop early at random, whole shards are read with every node dirty,
// forks are taken while nodes are still dirty, and both sides of each fork — and concurrent sibling branches, under
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

			// Every node of every shard dirty at once, most of them on a
			// few shared free values (runs of equal keys) or on 0.
			for r := 0; r < 10; r++ {
				for s := 0; s < c.ShardCount(); s++ {
					if err := dirtyWholeShard(c, s, rng); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := checkOrderedRead(c, rng); err != nil {
					t.Fatalf("all-dirty round %d: %v", r, err)
				}
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
// find refiles still pending, some reads must be served without a flush
// (refiles still pending afterwards), and no read may leave more dirty
// nodes than the flush bound.
func TestLazyOrderReadsSeeDirtyNodes(t *testing.T) {
	c := NewSharded(64, 8, 2048, 1)
	rng := rand.New(rand.NewSource(5))
	dirtyReads, lazyReads := 0, 0
	for r := 0; r < 100; r++ {
		for k := 0; k < 10; k++ {
			if err := applyOp(c, rng, r); err != nil {
				t.Fatal(err)
			}
		}
		if c.dirtyNodes() > 0 {
			dirtyReads++
		}
		c.AscendLenders(func(NodeID, int64) bool { return false })
		k := c.dirtyNodes()
		if k > 0 {
			lazyReads++
		}
		if k > c.Len()/flushShare {
			t.Fatalf("round %d: %d nodes dirty after an ordered read, bound %d", r, k, c.Len()/flushShare)
		}
	}
	if dirtyReads < 50 {
		t.Fatalf("only %d of 100 reads found pending refiles", dirtyReads)
	}
	if lazyReads < 25 {
		t.Fatalf("only %d of 100 reads were served without a flush", lazyReads)
	}
}

// nearlyFull builds the ledger FuzzLedgerOrder mutates: 64 nodes, a
// quarter large, every node within 47 MB of full — three in four run a job
// on their own memory, the rest lend theirs — so lender walks are short and
// many keys are 0 or equal.
func nearlyFull(shards int) *Cluster {
	c := NewMixed(Config{Nodes: 64, Cores: 8, NormalMB: 256, LargeFrac: 0.25, Shards: shards})
	for i := 0; i < c.Len(); i++ {
		id := NodeID(i)
		take := c.Node(id).CapacityMB - int64(i*37%48)
		var err error
		if i%4 != 0 {
			if err = c.StartJob(id, i); err == nil {
				err = c.AllocLocal(id, take)
			}
		} else {
			err = c.Lend(id, take)
		}
		if err != nil {
			panic(err)
		}
	}
	return c
}

// ledgerOrderOps replays ops, four bytes per operation (kind, ledger,
// node, amount), on nearly full ledgers of the given shard count: lend,
// return, allocate, release, start, end, or fork one of up to four
// ledgers. After every operation it reads the mutated ledger's lenders
// stopped at k and in full, and checks both against the sort-based
// reference. It returns how many full reads outlasted a shard's dirty
// buffer and so flushed and resumed mid-walk.
func ledgerOrderOps(t *testing.T, shards int, ops []byte) (resumes int) {
	cls := []*Cluster{nearlyFull(shards)}
	for ; len(ops) >= 4; ops = ops[4:] {
		c := cls[int(ops[1])%len(cls)]
		id := NodeID(int(ops[2]) % c.Len())
		n, amt := c.Node(id), int64(ops[3])
		var err error
		switch ops[0] % 7 {
		case 0:
			if n.FreeMB() > 0 {
				err = c.Lend(id, 1+amt%n.FreeMB())
			}
		case 1:
			if n.LentMB > 0 {
				err = c.ReturnLend(id, 1+amt%n.LentMB)
			}
		case 2:
			if n.RunningJob != NoJob && n.FreeMB() > 0 {
				err = c.AllocLocal(id, 1+amt%n.FreeMB())
			}
		case 3:
			if n.LocalMB > 0 {
				err = c.ReleaseLocal(id, 1+amt%n.LocalMB)
			}
		case 4:
			if n.RunningJob == NoJob && n.IsComputeAvailable() {
				err = c.StartJob(id, int(amt))
			}
		case 5:
			if n.RunningJob != NoJob && n.LocalMB == 0 {
				err = c.EndJob(id)
			}
		case 6:
			if len(cls) < 4 {
				cls = append(cls, c.Fork())
			}
		}
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		want := c.lendersByFreeDescRef(nil)
		k := 1 + int(amt%16)
		var got []NodeID
		c.AscendLenders(func(id NodeID, _ int64) bool {
			got = append(got, id)
			return len(got) < k
		})
		if !equalIDs(got, want[:min(k, len(want))]) {
			t.Fatalf("read stopped at %d = %v, reference %v", k, got, want)
		}
		var before []int
		for s := range c.shards {
			before = append(before, len(c.shards[s].free.dirty))
		}
		if got := c.collectLenders(nil); !equalIDs(got, want) {
			t.Fatalf("full read = %v, reference %v", got, want)
		}
		for s := range c.shards {
			sh := &c.shards[s]
			if b := before[s]; b > readBuf && b <= sh.n/flushShare && sh.lenders > 0 && len(sh.free.dirty) == 0 {
				resumes++
			}
			if k := len(sh.free.dirty); k > sh.n/flushShare {
				t.Fatalf("shard %d: %d nodes dirty after a read, bound %d", s, k, sh.n/flushShare)
			}
		}
	}
	return resumes
}

// ledgerOrderSeed is a deterministic operation stream: mostly lends,
// returns, allocations and releases on random nodes, returns and releases
// twice as often so that lenders appear faster than a nearly full ledger
// absorbs them, with the odd start, end and fork.
func ledgerOrderSeed(seed int64, nOps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 4*nOps)
	for i := 0; i < nOps; i++ {
		kind := []byte{0, 1, 1, 2, 3, 3}[rng.Intn(6)]
		if rng.Intn(10) == 0 {
			kind = byte(4 + rng.Intn(3))
		}
		ops = append(ops, kind, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

// TestLedgerOrderSeedsResume runs FuzzLedgerOrder's seeds and checks that
// each, at each shard count, reaches the flush-and-resume path.
func TestLedgerOrderSeedsResume(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, shards := range []int{1, 3} {
			if r := ledgerOrderOps(t, shards, ledgerOrderSeed(seed, 150)); r == 0 {
				t.Errorf("seed %d, %d shards: no read flushed and resumed", seed, shards)
			}
		}
	}
}

// FuzzLedgerOrder checks the ordered reads against the sort-based
// reference after every operation of an arbitrary mutation sequence, at 1
// and 3 shards (odd shard byte).
func FuzzLedgerOrder(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		f.Add(byte(0), ledgerOrderSeed(seed, 150))
		f.Add(byte(1), ledgerOrderSeed(seed, 150))
	}
	f.Fuzz(func(t *testing.T, shards byte, ops []byte) {
		ledgerOrderOps(t, 1+2*int(shards%2), ops)
	})
}

// TestPackedKeyRoom pins the capacity bound of the flush's packed sort key
// at its boundary: the largest capacity whose (bound − free) fits beside a
// shard's index bits is accepted, one more MB is not, and Config.Validate
// names the field that set it.
func TestPackedKeyRoom(t *testing.T) {
	for _, n := range []int{3, 4, 5, 2048, 2049} {
		idx := bits.Len(uint(n - 1))
		limit := int64(1)<<(64-idx) - 1
		if err := packRoom(limit, n); err != nil {
			t.Errorf("%d nodes, capacity %d: %v", n, limit, err)
		}
		if err := packRoom(limit+1, n); err == nil {
			t.Errorf("%d nodes, capacity %d: accepted", n, limit+1)
		}
	}
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{Nodes: 2048, NormalMB: 1<<53 - 1}, true},
		{Config{Nodes: 2048, NormalMB: 1 << 53}, false},
		{Config{Nodes: 2048, NormalMB: 1<<52 - 1, LargeFrac: 0.5}, true},
		{Config{Nodes: 2048, NormalMB: 1 << 52, LargeFrac: 0.5}, false},
		{Config{Nodes: 2048, NormalMB: 1 << 62, LargeFrac: 0.5}, false},        // 2× overflows
		{Config{Nodes: 4096, NormalMB: 1 << 53, Shards: 2}, false},             // 2048-node shards
		{Config{Nodes: 4096, NormalMB: 1<<52 - 1, Shards: 1}, true},            // one 4096-node shard
		{Config{Nodes: 4096, NormalMB: 1 << 52, Shards: 1}, false},             // ... one bit short
		{Config{Nodes: 192, NormalMB: 2048, LargeFrac: 0.25, Shards: 7}, true}, // the tests' usual ledger
		{Config{Nodes: 0, NormalMB: 2048}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
		field := "NormalMB"
		if tc.cfg.Nodes == 0 {
			field = "Nodes"
		}
		if err != nil && !strings.Contains(err.Error(), field) {
			t.Errorf("%+v: error %q does not name %s", tc.cfg, err, field)
		}
	}
}

// TestFlushAtKeyBound flushes a shard whose capacity is the largest the
// packed key admits, with keys at both ends of the range (0 and the full
// capacity) and in equal runs, and checks the order against the
// comparator sort.
func TestFlushAtKeyBound(t *testing.T) {
	const n = 37
	bound := int64(1)<<(64-bits.Len(uint(n-1))) - 1
	frees := make([]int64, n)
	for i := range frees {
		frees[i] = bound
	}
	var ix freeIndex
	ix.init(frees)
	rng := rand.New(rand.NewSource(7))
	values := []int64{0, 1, bound / 2, bound - 1, bound}
	var keys []uint64
	for r := 0; r < 200; r++ {
		for k := rng.Intn(n + 1); k > 0; k-- {
			ix.update(int32(rng.Intn(n)), values[rng.Intn(len(values))])
		}
		ix.flush(&keys)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, ix.cmp)
		if !slices.Equal(ix.order, want) {
			t.Fatalf("round %d: order %v, comparator sort %v", r, ix.order, want)
		}
	}
}

// TestLedgerFlushAllocationFree asserts a warm flush of a whole dirty
// shard allocates nothing: the packed keys reuse the cluster's scratch.
func TestLedgerFlushAllocationFree(t *testing.T) {
	c := NewSharded(512, 8, 2048, 2)
	rng := rand.New(rand.NewSource(4))
	var err error
	flush := func() {
		for s := 0; s < c.ShardCount() && err == nil; s++ {
			err = dirtyWholeShard(c, s, rng)
		}
		c.AscendLenders(func(NodeID, int64) bool { return false })
		if err == nil && c.dirtyNodes() != 0 {
			err = fmt.Errorf("%d nodes still dirty after the read", c.dirtyNodes())
		}
	}
	flush() // size the scratch
	if got := testing.AllocsPerRun(20, flush); got != 0 {
		t.Fatalf("dirtying and flushing every shard allocates %.1f per round, want 0", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLedgerFlush measures the ordered read that a placement forces
// after a scheduling tick's worth of refiles: dirty nodes of one
// grizzly-sized shard are refiled (each lends or gets back one MB) and an
// AscendLenders read of one node flushes them. 282 is the mean dirty count
// per flush of the grizzly-week workload.
func BenchmarkLedgerFlush(b *testing.B) {
	for _, dirty := range []int{16, 282, 1490} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			const nodes = 1490
			c := NewSharded(nodes, 8, 2048, 1)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < nodes; i++ {
				if err := c.Lend(NodeID(i), rng.Int63n(2048)); err != nil {
					b.Fatal(err)
				}
			}
			ids := rng.Perm(nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < dirty; k++ {
					id := NodeID(ids[(i*dirty+k)%nodes])
					if n := c.Node(id); n.FreeMB() > 0 {
						if err := c.Lend(id, 1); err != nil {
							b.Fatal(err)
						}
					} else if err := c.ReturnLend(id, 1); err != nil {
						b.Fatal(err)
					}
				}
				c.AscendLenders(func(NodeID, int64) bool { return false })
			}
		})
	}
}
