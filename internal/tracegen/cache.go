package tracegen

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dismem/internal/workload"
)

// Content-addressed, single-flight memoization of Run. Figure pipelines,
// replication seeds, and user scenarios all request traces through Cached;
// concurrent requests for the same canonical Params block on one
// generation and then share the same immutable *Output. Callers must
// treat a cached Output (Jobs included) as read-only — anything that needs
// to mutate a job must clone it first. Generated traces join a bounded LRU;
// one in flight is never evicted.

// cacheCap bounds the generated traces the cache keeps, so a long-lived
// dmpd does not grow by one trace per fresh spec for its whole life. A walk
// of every evaluation stage requests 18 distinct traces, and 16 more per
// extra headline seed, so a walk with up to three seeds regenerates none.
const cacheCap = 64

// cacheEntry is one single-flight slot: the first requester generates and
// closes done; everyone else blocks on done and reads out/err.
type cacheEntry struct {
	key  string
	done chan struct{}
	out  *Output
	err  error
	elem *list.Element // LRU position once generated; nil while in flight
}

var cache = struct {
	mu  sync.Mutex
	m   map[string]*cacheEntry //dmp:guardedby(mu) in flight or generated
	lru *list.List             //dmp:guardedby(mu) of generated *cacheEntry; front = most recent
	// The hit/miss counters are atomics, not mutex-guarded fields: the
	// dmpd daemon's /metrics endpoint reads CacheStats concurrently with
	// in-flight generations, and a scrape must never contend with (or wait
	// behind) the cache lock.
	hits   atomic.Int64 //dmp:atomiconly
	misses atomic.Int64 //dmp:atomiconly
}{m: map[string]*cacheEntry{}, lru: list.New()}

// Key returns the canonical content hash of p. Params that produce the
// same generation — default model spelled "" or "cirne", a nil Cirne
// versus a pointer holding the defaults, distinct pointers with equal
// values, zero versus explicit default knobs — map to the same key, and
// the model's unused parameter block (Lublin under "cirne" and vice versa)
// is excluded so it cannot split entries.
func Key(p Params) string {
	p.normalize()
	model := p.Model
	if model == "" {
		model = "cirne"
	}
	c := NewCanon("tracegen/v2")
	c.Str("model", model)
	c.Int("nodes", int64(p.SystemNodes))
	c.Float("load", p.Load)
	c.Float("days", p.Days)
	c.Float("large", p.LargeFrac)
	c.Float("over", p.Overestimation)
	c.Int("normmb", p.NormalNodeMB)
	c.Int("gcoll", int64(p.GoogleCollections))
	c.Float("rdp", p.RDPEpsilonFrac)
	c.Int("cores", int64(p.CoresPerNode))
	c.Int("seed", p.Seed)
	switch model {
	case "cirne":
		// Mirror Run: the pointer only overrides the default
		// parameterisation, and its SystemNodes/Load/Days are always
		// taken from Params.
		cp := workload.NewCirneParams(p.SystemNodes, p.Load, p.Days)
		if p.Cirne != nil {
			cp = *p.Cirne
			cp.SystemNodes = p.SystemNodes
			cp.Load = p.Load
			cp.Days = p.Days
		}
		c.Struct(cp)
	case "lublin":
		lp := workload.NewLublinParams(p.SystemNodes, p.Load, p.Days)
		if p.Lublin != nil {
			lp = *p.Lublin
			lp.SystemNodes = p.SystemNodes
			lp.Load = p.Load
			lp.Days = p.Days
		}
		c.Struct(lp)
	}
	return c.Sum()
}

// Cached returns the memoized pipeline output for p, generating it once per
// canonical key no matter how many goroutines ask concurrently, and again
// only after the key has been evicted. Generation is deterministic, so
// errors are cached alongside outputs.
func Cached(p Params) (*Output, error) {
	k := Key(p)
	cache.mu.Lock()
	if e, ok := cache.m[k]; ok {
		if e.elem != nil {
			cache.lru.MoveToFront(e.elem)
		}
		cache.mu.Unlock()
		cache.hits.Add(1)
		<-e.done
		return e.out, e.err
	}
	e := &cacheEntry{key: k, done: make(chan struct{})}
	cache.m[k] = e
	cache.mu.Unlock()
	cache.misses.Add(1)

	e.out, e.err = Run(p)
	cache.mu.Lock()
	if cache.m[k] == e { // else a ResetCache dropped it meanwhile
		e.elem = cache.lru.PushFront(e)
		for cache.lru.Len() > cacheCap {
			old := cache.lru.Remove(cache.lru.Back()).(*cacheEntry)
			delete(cache.m, old.key)
		}
	}
	cache.mu.Unlock()
	close(e.done)
	return e.out, e.err
}

// ResetCache drops every cached trace and zeroes the hit/miss counters.
// Benchmarks use it to measure cold regenerations; long-lived processes
// can use it to release trace memory between campaigns.
func ResetCache() {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.m = map[string]*cacheEntry{}
	cache.lru.Init()
	cache.hits.Store(0)
	cache.misses.Store(0)
}

// CacheStats reports the number of cache entries (generated and kept, or in
// flight) and the hit/miss counts since the last ResetCache. Misses count
// actual generator invocations: single-flight waiters are hits, and a
// request for an evicted key is a miss. The counters are safe to read while
// generations are in flight (the daemon's /metrics scrapes them), so a
// (hits, misses) pair is a consistent snapshot only when the cache is
// quiescent.
func CacheStats() (entries int, hits, misses int64) {
	cache.mu.Lock()
	entries = len(cache.m)
	cache.mu.Unlock()
	return entries, cache.hits.Load(), cache.misses.Load()
}
