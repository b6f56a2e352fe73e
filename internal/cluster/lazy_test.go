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

// checkOrderedRead performs one random ordered read — AscendLenders,
// TopIdle, AscendShardLenders, or a full AscendLenders walk skipping a
// random exclusion set — stopping the first three after a random number of
// nodes, and compares what it saw with the sort-based references. It
// returns an error instead of failing so concurrent branches can call it.
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
		got = c.TopIdle(limit, nil)
		want = c.topIdleRef(limit)
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
// ordered reads and an invariant check before every read.
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

// refileWholeShard refiles every node of shard s: a node with free memory
// lends it down to 0, 256 or 512 MB (whichever is below what it has), and
// an exhausted node gets its loans or its local memory back, so most keys
// land on a few shared values.
func refileWholeShard(c *Cluster, s int, rng *rand.Rand) error {
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
	return nil
}

// TestLazyOrderDifferential is the oracle for the lender trees: every
// ordered read must see exactly the order a fresh sort gives. Reads stop
// early at random, whole shards are refiled between reads, and both sides
// of each fork — and concurrent sibling branches, under -race — keep
// mutating and reading.
func TestLazyOrderDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			c := NewMixed(Config{Nodes: 192, Cores: 8, NormalMB: 2048, LargeFrac: 0.25, Shards: shards})
			if c.ShardCount() != shards {
				t.Fatalf("ShardCount = %d, want %d", c.ShardCount(), shards)
			}
			if err := mutateAndRead(c, rng, 200); err != nil {
				t.Fatal(err)
			}

			// Every node of every shard refiled at once, most of them onto
			// a few shared free values (runs of equal free memory) or 0.
			for r := 0; r < 10; r++ {
				for s := 0; s < c.ShardCount(); s++ {
					if err := refileWholeShard(c, s, rng); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := checkOrderedRead(c, rng); err != nil {
					t.Fatalf("whole-shard round %d: %v", r, err)
				}
			}

			// Fork, read both sides while they still share every shard,
			// then let each side refile and read its own copies.
			f := c.Fork()
			for i, cl := range []*Cluster{c, f} {
				name := []string{"base", "fork"}[i]
				if err := cl.CheckInvariants(); err != nil {
					t.Fatalf("%s right after Fork: %v", name, err)
				}
				if err := checkOrderedRead(cl, rng); err != nil {
					t.Fatalf("%s right after Fork: %v", name, err)
				}
			}
			if err := mutateAndRead(f, rand.New(rand.NewSource(1)), 100); err != nil {
				t.Fatalf("fork: %v", err)
			}
			if err := mutateAndRead(c, rand.New(rand.NewSource(2)), 100); err != nil {
				t.Fatalf("base: %v", err)
			}

			// Concurrent branches of the base, plus a fork of a fork.
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
// reference.
func ledgerOrderOps(t *testing.T, shards int, ops []byte) {
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
		if got := c.collectLenders(nil); !equalIDs(got, want) {
			t.Fatalf("full read = %v, reference %v", got, want)
		}
	}
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

// TestPackedKeyRoom pins the capacity bound of the lender key at its
// boundary: the largest capacity that fits beside the ID bits of the whole
// cluster, whatever its shard count, is accepted, one more MB is not, and
// Config.Validate names the field that set it. A ledger built at the limit
// orders free values at both ends of the range, and in equal runs, exactly
// as the sort-based reference does.
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
		{Config{Nodes: 2048, NormalMB: 1 << 62, LargeFrac: 0.5}, false}, // 2× overflows
		{Config{Nodes: 4096, NormalMB: 1<<52 - 1, Shards: 2}, true},     // 4096 IDs, in any shards
		{Config{Nodes: 4096, NormalMB: 1 << 52, Shards: 2}, false},      // ... one bit short
		{Config{Nodes: 4096, NormalMB: 1<<52 - 1, Shards: 1}, true},
		{Config{Nodes: 4096, NormalMB: 1 << 52, Shards: 1}, false},
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

	const n = 37
	limit := int64(1)<<(64-bits.Len(uint(n-1))) - 1
	if err := (Config{Nodes: n, NormalMB: limit, Shards: 3}).Validate(); err != nil {
		t.Fatalf("%d nodes at capacity %d: %v", n, limit, err)
	}
	c := NewSharded(n, 8, limit, 3)
	rng := rand.New(rand.NewSource(7))
	values := []int64{0, 1, limit / 2, limit - 1, limit}
	for r := 0; r < 200; r++ {
		id := NodeID(rng.Intn(n))
		target := values[rng.Intn(len(values))]
		var err error
		if free := c.Node(id).FreeMB(); target < free {
			err = c.Lend(id, free-target)
		} else {
			err = c.ReturnLend(id, target-free)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got, want := c.collectLenders(nil), c.lendersByFreeDescRef(nil); !equalIDs(got, want) {
			t.Fatalf("round %d: lenders %v, reference %v", r, got, want)
		}
	}
}

// TestReadsWriteNothing asserts that an ordered read writes no shared
// state: walks of every kind on a fresh fork leave both sides' CowStats
// unchanged and every shard's tree byte-identical and still shared, and a
// warm walk allocates nothing.
func TestReadsWriteNothing(t *testing.T) {
	for _, shards := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := NewMixed(Config{Nodes: 192, Cores: 8, NormalMB: 2048, LargeFrac: 0.25, Shards: shards})
			rng := rand.New(rand.NewSource(int64(shards)))
			for i := 0; i < 400; i++ {
				if err := applyOp(c, rng, i); err != nil {
					t.Fatal(err)
				}
			}
			f := c.Fork()
			var trees [][]uint64
			for s := range c.shards {
				trees = append(trees, slices.Clone(c.shards[s].tree))
			}
			baseNodes, baseThaws := c.CowStats()
			forkNodes, forkThaws := f.CowStats()

			n := 0
			visit := func(NodeID, int64) bool { n++; return true }
			short := func(NodeID, int64) bool { n++; return n%4 != 0 }
			var buf []NodeID
			read := func() {
				f.AscendLenders(visit)
				f.AscendLenders(short)
				for s := 0; s < f.ShardCount(); s++ {
					f.AscendShardLenders(s, visit)
					f.AscendShardLenders(s, short)
				}
				buf = f.TopIdle(8, buf)
			}
			read() // grow the scratch
			if got := testing.AllocsPerRun(20, read); got != 0 {
				t.Errorf("warm walks on a fork allocate %.1f per round, want 0", got)
			}
			for i := 0; i < 20; i++ {
				if err := checkOrderedRead(f, rng); err != nil {
					t.Fatal(err)
				}
			}

			if nodes, thaws := c.CowStats(); nodes != baseNodes || thaws != baseThaws {
				t.Errorf("base CowStats (%d, %d) after the fork's reads, want (%d, %d)", nodes, thaws, baseNodes, baseThaws)
			}
			if nodes, thaws := f.CowStats(); nodes != forkNodes || thaws != forkThaws {
				t.Errorf("fork CowStats (%d, %d) after its reads, want (%d, %d)", nodes, thaws, forkNodes, forkThaws)
			}
			for s, want := range trees {
				if !slices.Equal(c.shards[s].tree, want) || !slices.Equal(f.shards[s].tree, want) {
					t.Fatalf("shard %d: a read changed the tree", s)
				}
				if &c.shards[s].tree[0] != &f.shards[s].tree[0] {
					t.Fatalf("shard %d: a read copied the shared tree", s)
				}
			}
		})
	}
}
