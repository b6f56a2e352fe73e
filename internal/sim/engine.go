// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a priority queue of timestamped events. Events fire in
// (time, insertion-order) order, so two runs with identical inputs produce
// identical schedules. Event handles support cancellation and rescheduling,
// which the scheduler uses to move job-completion events when a job's
// slowdown changes.
//
// Event structs are pooled: once an event has fired or been cancelled its
// storage is reused by a later Schedule, so a long simulation performs O(1)
// allocations per firing instead of one per Schedule. Handles carry a
// generation stamp, making operations on spent handles safe no-ops rather
// than corruption of whatever event happens to occupy the storage next.
package sim

import (
	"fmt"
	"math"
)

// Action is the callback invoked when an event fires. It receives the engine
// so handlers can schedule follow-up events.
type Action func(e *Engine)

// Event is the pooled storage for one scheduled occurrence. Callers never
// hold an *Event directly; they hold a Handle.
type Event struct {
	at    float64
	index int // heap index; -1 when not queued
	gen   uint64
	tag   uint64
	fire  Action
}

// Handle identifies one scheduled event. The zero Handle refers to no event
// and every operation on it is a no-op. A Handle is spent once its event
// fires or is cancelled; operations on spent handles are no-ops too (the
// underlying storage may already belong to a different event).
type Handle struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the event is still queued to fire.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// At returns the simulated time at which the event is due to fire, or NaN
// if the handle is zero or spent.
func (h Handle) At() float64 {
	if !h.Pending() {
		return math.NaN()
	}
	return h.ev.at
}

// slot is one heap entry: the event's (at, seq) key held inline, so a
// comparison reads the heap array and never dereferences an event.
type slot struct {
	at  float64
	seq uint64
	ev  *Event
}

// before orders slots by (at, seq). seq is unique, so the order is total
// and every heap shape pops the same sequence.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by (at, seq). Each
// event's index mirrors its slot position; only the slots a sift moves are
// rewritten, the moving one once, where it lands.
type eventQueue []slot

// up sifts the slot at i toward the root.
//
//dmp:hotpath
func (q eventQueue) up(i int) {
	s := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = s
	s.ev.index = i
}

// down sifts the slot at i toward the leaves and reports whether it moved.
//
//dmp:hotpath
func (q eventQueue) down(i int) bool {
	s, n, i0 := q[i], len(q), i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = s
	s.ev.index = i
	return i != i0
}

// push appends ev under (at, seq) and sifts it into place.
//
//dmp:hotpath
func (q *eventQueue) push(at float64, seq uint64, ev *Event) {
	*q = append(*q, slot{at: at, seq: seq, ev: ev})
	q.up(len(*q) - 1)
}

// remove takes the slot at i out of the heap and returns its event, with
// index −1. The vacated tail slot is cleared so the array retains no event.
//
//dmp:hotpath
func (q *eventQueue) remove(i int) *Event {
	h := *q
	ev, last := h[i].ev, len(h)-1
	if i != last {
		h[i] = h[last]
	}
	h[last] = slot{}
	h = h[:last]
	*q = h
	if i != last && !h.down(i) {
		h.up(i)
	}
	ev.index = -1
	return ev
}

// Engine is a discrete-event simulator clock and event queue.
// It is not safe for concurrent use; the simulation is single-threaded by
// design so results are reproducible. The engine keeps no horizon, budget
// or run loop: its driver steps it, and owns every limit on the run.
type Engine struct {
	now   float64
	seq   uint64
	queue eventQueue
	free  []*Event // recycled event storage
	fired uint64
}

// New returns an engine with the clock at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to fire at absolute time at, under an opaque
// classification tag. The engine never interprets tags; Clone hands them
// back so a fork can rebind each pending event's action, and zero means
// "unclassified". Scheduling in the past panics: it always indicates a
// logic error in the caller, and silently clamping would corrupt causality.
func (e *Engine) Schedule(at float64, tag uint64, fn Action) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", at, e.now))
	}
	if math.IsNaN(at) {
		panic("sim: schedule at NaN")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	e.seq++
	ev.at = at
	ev.tag = tag
	ev.fire = fn
	e.queue.push(at, e.seq, ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After enqueues fn to fire d seconds from now under tag.
func (e *Engine) After(d float64, tag uint64, fn Action) Handle {
	return e.Schedule(e.now+d, tag, fn)
}

// recycle marks ev spent (invalidating every Handle stamped with the old
// generation) and returns its storage to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fire = nil
	e.free = append(e.free, ev)
}

// Cancel removes the event from the queue so it will not fire. Cancelling a
// zero, fired, or already-cancelled handle is a no-op. The storage is
// recycled immediately, so very long simulations neither accumulate dead
// queue entries nor allocate per firing.
func (e *Engine) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e.recycle(e.queue.remove(h.ev.index))
}

// Reschedule cancels h and schedules its action (and tag) at a new absolute
// time, returning the replacement handle. The handle must be pending.
func (e *Engine) Reschedule(h Handle, at float64) Handle {
	if !h.Pending() {
		panic("sim: reschedule of a spent or zero event handle")
	}
	fn := h.ev.fire
	tag := h.ev.tag
	e.Cancel(h)
	return e.Schedule(at, tag, fn)
}

// Step fires the next event if it is due at or before limit, and reports
// whether one fired. Events due exactly at limit fire.
func (e *Engine) Step(limit float64) bool {
	if len(e.queue) == 0 || e.queue[0].at > limit {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.at
	e.fired++
	fn := ev.fire
	// Handles to ev stay valid (and inert: index is -1) while the handler
	// runs; the storage is recycled only after it returns.
	fn(e)
	e.recycle(ev)
	return true
}
