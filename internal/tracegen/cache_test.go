package tracegen

import (
	"sync"
	"testing"

	"dismem/internal/workload"
)

func benchParams(seed int64) Params {
	return Params{
		SystemNodes:       16,
		Load:              0.8,
		Days:              0.05,
		LargeFrac:         0.5,
		Overestimation:    0.6,
		GoogleCollections: 100,
		Seed:              seed,
	}
}

// Equal Params must hit one cache entry even when their model pointers are
// different allocations, defaults are spelled explicitly, or the unused
// model block differs.
func TestKeyCanonicalization(t *testing.T) {
	base := benchParams(1)

	c1 := workload.NewCirneParams(base.SystemNodes, base.Load, base.Days)
	c2 := c1 // same values, distinct pointer below
	withPtr1, withPtr2 := base, base
	withPtr1.Cirne = &c1
	withPtr2.Cirne = &c2
	if Key(withPtr1) != Key(withPtr2) {
		t.Fatal("distinct Cirne pointers with equal values produced different keys")
	}
	if Key(base) != Key(withPtr1) {
		t.Fatal("nil Cirne and explicit default CirneParams produced different keys")
	}

	// The pointer's SystemNodes/Load/Days are overridden by Params in Run,
	// so a stale copy of them must not split the key.
	stale := c1
	stale.SystemNodes, stale.Load, stale.Days = 9999, 0.1, 42
	withStale := base
	withStale.Cirne = &stale
	if Key(base) != Key(withStale) {
		t.Fatal("overridden Cirne fields leaked into the key")
	}

	spelled := base
	spelled.Model = "cirne"
	if Key(base) != Key(spelled) {
		t.Fatal(`model "" and "cirne" produced different keys`)
	}

	defaults := base
	defaults.NormalNodeMB = 64 * 1024
	defaults.RDPEpsilonFrac = 0.05
	defaults.CoresPerNode = 32
	if Key(base) != Key(defaults) {
		t.Fatal("zero knobs and explicit defaults produced different keys")
	}

	// Under the cirne model the Lublin block is unused and must not
	// split entries.
	lp := workload.NewLublinParams(base.SystemNodes, base.Load, base.Days)
	withLublin := base
	withLublin.Lublin = &lp
	if Key(base) != Key(withLublin) {
		t.Fatal("unused Lublin block leaked into a cirne key")
	}

	// Distinguishing fields must distinguish.
	for name, q := range map[string]Params{
		"seed":   benchParams(2),
		"load":   {SystemNodes: 16, Load: 0.7, Days: 0.05, LargeFrac: 0.5, Overestimation: 0.6, GoogleCollections: 100, Seed: 1},
		"model":  {SystemNodes: 16, Load: 0.8, Days: 0.05, LargeFrac: 0.5, Overestimation: 0.6, GoogleCollections: 100, Seed: 1, Model: "lublin"},
		"overst": {SystemNodes: 16, Load: 0.8, Days: 0.05, LargeFrac: 0.5, Overestimation: 0, GoogleCollections: 100, Seed: 1},
	} {
		if Key(q) == Key(base) {
			t.Fatalf("params differing in %s collided", name)
		}
	}

	// A modified Cirne knob (not one of the overridden three) must
	// distinguish.
	tweaked := c1
	tweaked.MaxNodes = c1.MaxNodes + 1
	withTweak := base
	withTweak.Cirne = &tweaked
	if Key(base) == Key(withTweak) {
		t.Fatal("Cirne.MaxNodes change did not change the key")
	}
}

// Single-flight: many concurrent requests for the same Params invoke the
// generator exactly once and share one Output pointer.
func TestCachedSingleFlight(t *testing.T) {
	ResetCache()
	const goroutines = 16
	p := benchParams(1)
	outs := make([]*Output, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := Cached(p)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if outs[i] != outs[0] {
			t.Fatal("concurrent callers received different Output instances")
		}
	}
	entries, hits, misses := CacheStats()
	if misses != 1 {
		t.Fatalf("generator invoked %d times for one distinct Params, want 1", misses)
	}
	if entries != 1 || hits != goroutines-1 {
		t.Fatalf("stats = %d entries, %d hits; want 1 entry, %d hits", entries, hits, goroutines-1)
	}
}

// Concurrent access across a mix of duplicate and distinct Params: run
// under -race in CI. The generator must fire exactly once per distinct
// canonical key.
func TestCachedConcurrentDistinct(t *testing.T) {
	ResetCache()
	seeds := []int64{1, 2, 3, 4}
	const dup = 6
	var wg sync.WaitGroup
	for _, s := range seeds {
		for d := 0; d < dup; d++ {
			wg.Add(1)
			go func(s int64) {
				defer wg.Done()
				out, err := Cached(benchParams(s))
				if err != nil {
					t.Error(err)
					return
				}
				if len(out.Jobs) == 0 {
					t.Error("empty cached trace")
				}
			}(s)
		}
	}
	wg.Wait()
	entries, _, misses := CacheStats()
	if misses != int64(len(seeds)) || entries != len(seeds) {
		t.Fatalf("generator ran %d times over %d entries, want %d per distinct Params",
			misses, entries, len(seeds))
	}
}

// Cached output must be bit-identical to a fresh uncached generation: same
// jobs, same order, same float64 bit patterns in submit times and
// runtimes.
func TestCachedMatchesUncached(t *testing.T) {
	ResetCache()
	p := benchParams(1)
	cached, err := Cached(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Jobs) != len(fresh.Jobs) {
		t.Fatalf("job counts differ: %d cached vs %d fresh", len(cached.Jobs), len(fresh.Jobs))
	}
	for i := range cached.Jobs {
		c, f := cached.Jobs[i], fresh.Jobs[i]
		if c.ID != f.ID || c.SubmitTime != f.SubmitTime || c.Nodes != f.Nodes ||
			c.RequestMB != f.RequestMB || c.BaseRuntime != f.BaseRuntime {
			t.Fatalf("job %d diverged: %+v vs %+v", i, c, f)
		}
	}
}

// TestCacheStatsConcurrentWithCached hammers the introspection path while
// generations are in flight: the daemon's /metrics handler calls CacheStats
// on every scrape, concurrently with request handlers driving Cached, so
// the counters must be readable without data races and without waiting on
// an in-progress generation. Run under -race in CI.
func TestCacheStatsConcurrentWithCached(t *testing.T) {
	ResetCache()
	const readers, writers, rounds = 4, 4, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				entries, hits, misses := CacheStats()
				if entries < 0 || hits < 0 || misses < 0 {
					t.Error("negative cache stats")
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < rounds; i++ {
				// Half duplicate keys (single-flight waits), half distinct
				// (fresh generations), so readers overlap both paths.
				if _, err := Cached(benchParams(int64(1 + i%2*w))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	entries, hits, misses := CacheStats()
	if entries == 0 || hits+misses < writers*rounds {
		t.Fatalf("stats lost updates: %d entries, %d hits, %d misses", entries, hits, misses)
	}
}

// Canon is the exported canonical-hashing scheme; the scenario result cache
// keys on it, so its basic algebra — same fields same digest, any field
// difference a different digest, domains never colliding — is pinned here.
func TestCanon(t *testing.T) {
	build := func(domain string, f float64) string {
		c := NewCanon(domain)
		c.Str("s", "x")
		c.Int("i", 7)
		c.Float("f", f)
		return c.Sum()
	}
	if build("d/v1", 1.5) != build("d/v1", 1.5) {
		t.Fatal("equal encodings produced different digests")
	}
	if build("d/v1", 1.5) == build("d/v2", 1.5) {
		t.Fatal("distinct domains collided")
	}
	if build("d/v1", 1.5) == build("d/v1", 1.5000001) {
		t.Fatal("distinct floats collided")
	}
	// Float folds exact bit patterns: -0.0 and +0.0 must key differently.
	if build("d/v1", 0.0) == build("d/v1", negZero()) {
		t.Fatal("-0.0 and +0.0 collided")
	}
	// Struct folds flat numeric blocks by field name.
	type block struct {
		A int
		B float64
	}
	sum := func(b block) string {
		c := NewCanon("d/v1")
		c.Struct(b)
		return c.Sum()
	}
	if sum(block{1, 2}) == sum(block{1, 3}) {
		t.Fatal("struct field change did not change the digest")
	}
}

func negZero() float64 { z := 0.0; return -z }

func TestResetCache(t *testing.T) {
	ResetCache()
	if _, err := Cached(benchParams(1)); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	entries, hits, misses := CacheStats()
	if entries != 0 || hits != 0 || misses != 0 {
		t.Fatalf("stats after reset = %d/%d/%d, want zeros", entries, hits, misses)
	}
	if _, err := Cached(benchParams(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, misses := CacheStats(); misses != 1 {
		t.Fatal("reset did not force a fresh generation")
	}
}

// TestCacheEvictsLeastRecentlyUsed fills the cache past its bound. The
// least recently used trace goes and is generated afresh when asked for
// again; one used since stays; and an entry still in flight is never
// evicted, however many traces complete after it.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	inFlight := &cacheEntry{key: "in flight", done: make(chan struct{})}
	cache.mu.Lock()
	cache.m[inFlight.key] = inFlight
	cache.mu.Unlock()
	outs := map[int64]*Output{}
	get := func(seed int64) *Output {
		t.Helper()
		out, err := Cached(benchParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for seed := int64(1); seed <= cacheCap; seed++ {
		outs[seed] = get(seed)
	}
	get(1) // seed 1 is now the most recently used; seed 2 the least
	get(cacheCap + 1)
	entries, _, misses := CacheStats()
	if entries != cacheCap+1 || misses != cacheCap+1 {
		t.Fatalf("%d entries after %d misses, want %d generated and one in flight", entries, misses, cacheCap)
	}
	if get(1) != outs[1] {
		t.Fatal("a recently used trace was evicted")
	}
	if _, _, m := CacheStats(); m != cacheCap+1 {
		t.Fatalf("a hit counted as a miss: %d misses", m)
	}
	if get(2) == outs[2] {
		t.Fatal("the least recently used trace was kept past the bound")
	}
	if _, _, m := CacheStats(); m != cacheCap+2 {
		t.Fatalf("the evicted trace was not generated afresh: %d misses", m)
	}
	cache.mu.Lock()
	kept := cache.m[inFlight.key] == inFlight
	cache.mu.Unlock()
	if !kept {
		t.Fatal("an in-flight entry was evicted")
	}
}
