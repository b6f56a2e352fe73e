package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"dismem/internal/experiments"
)

// entry is one scenario in the store: first a single-flight computation —
// every request for the same canonical key joins it — then, on success, a
// cached result. done is closed exactly once, after which result, rows,
// and err are immutable; waiters therefore read them without a
// lock.
//
// Cancellation is refcounted: each waiting request holds one reference,
// and the entry's context (the run's context) is cancelled only when the
// last reference leaves before completion. A runner whose own client
// disconnects keeps computing as long as any other request still wants the
// answer.
type entry struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// Guarded by store.mu until completed is set.
	refs      int
	completed bool

	result []byte                    // rendered response JSON
	rows   []experiments.ScenarioRow // a scenario's result rows; their logs render on the telemetry GET
	err    error

	// spec is the scenario document this entry computed, retained because
	// the branch endpoint needs it to re-simulate a cached result's prefix
	// (the id is a hash and cannot be inverted). Written by the submitting
	// handler before the run goroutine starts; readers observe it only
	// after completed, so the go statement and store.mu order the accesses.
	// Nil for branch entries, which can be neither branched nor asked for
	// telemetry (completedScenario).
	spec *experiments.ScenarioSpec

	elem *list.Element // LRU position; non-nil only for cached successes
}

// store is the content-addressed result cache with single-flight semantics.
// Running entries live in the map only; completed successes additionally
// join a bounded LRU. Completed failures are dropped immediately — errors
// here are operational (cancellation, admission overflow), not properties
// of the spec, so a retry must re-run.
type store struct {
	mu  sync.Mutex
	m   map[string]*entry //dmp:guardedby(mu)
	lru *list.List        //dmp:guardedby(mu) of *entry; front = most recent
	cap int

	hits   atomic.Int64 //dmp:atomiconly joins that found an entry (running or cached)
	misses atomic.Int64 //dmp:atomiconly joins that started a run
}

func newStore(cap int) *store {
	return &store{m: make(map[string]*entry), lru: list.New(), cap: cap}
}

// join returns the entry for id, creating it (started=true) when no run is
// in flight and no result is cached. The caller owns one reference until
// it calls leave or reads past done.
func (st *store) join(base context.Context, id string) (e *entry, started bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e = st.m[id]; e != nil {
		st.hits.Add(1)
		if e.completed {
			st.lru.MoveToFront(e.elem)
		} else {
			e.refs++
		}
		return e, false
	}
	st.misses.Add(1)
	ctx, cancel := context.WithCancel(base)
	e = &entry{id: id, ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	st.m[id] = e
	return e, true
}

// leave drops one reference from a still-running entry. When the last
// reference goes, the entry is unmapped (a later identical request starts
// fresh) and its run cancelled — the simulation aborts at its next
// interrupt poll and the slot frees.
func (st *store) leave(e *entry) {
	st.mu.Lock()
	if e.completed {
		st.mu.Unlock()
		return
	}
	e.refs--
	abandoned := e.refs == 0
	if abandoned && st.m[e.id] == e {
		delete(st.m, e.id)
	}
	st.mu.Unlock()
	if abandoned {
		e.cancel()
	}
}

// complete finishes the entry: waiters wake, successes enter the LRU (with
// eviction beyond cap), failures leave the map so the next request
// re-runs. Idempotent fields become immutable here.
func (st *store) complete(e *entry, result []byte, rows []experiments.ScenarioRow, err error) {
	st.mu.Lock()
	e.completed = true
	e.result, e.rows, e.err = result, rows, err
	if st.m[e.id] != e {
		// Abandoned while running: nobody is waiting and a fresh entry may
		// already own the key. Discard quietly.
	} else if err != nil {
		delete(st.m, e.id)
	} else {
		e.elem = st.lru.PushFront(e)
		for st.lru.Len() > st.cap {
			old := st.lru.Remove(st.lru.Back()).(*entry)
			delete(st.m, old.id)
		}
	}
	st.mu.Unlock()
	close(e.done)
	e.cancel()
}

// peek is the read-only lookup behind GET: reports whether the id is
// known and, if completed, hands back the immutable entry. A running entry
// returns (nil, true, false).
func (st *store) peek(id string) (e *entry, known, done bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.m[id]
	if cur == nil {
		return nil, false, false
	}
	if !cur.completed {
		return nil, true, false
	}
	st.lru.MoveToFront(cur.elem)
	return cur, true, true
}

// stats reports (cached entries, hits, misses) for /metrics.
func (st *store) stats() (entries int, hits, misses int64) {
	st.mu.Lock()
	entries = st.lru.Len()
	st.mu.Unlock()
	return entries, st.hits.Load(), st.misses.Load()
}
