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
	"container/heap"
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
	seq   uint64
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

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator clock and event queue.
// It is not safe for concurrent use; the simulation is single-threaded by
// design so results are reproducible.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventQueue
	free      []*Event // recycled event storage
	fired     uint64
	maxT      float64
	maxEvents uint64
	halted    bool
	exhausted bool
}

// New returns an engine with the clock at time zero and no horizon.
func New() *Engine {
	return &Engine{maxT: math.Inf(1)}
}

// SetMaxEvents installs a runaway backstop: Run halts once n events have
// fired, and Exhausted reports it. Zero (the default) means unlimited.
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// Exhausted reports whether a Run stopped because the event budget was
// spent rather than because the queue drained or the horizon was reached.
func (e *Engine) Exhausted() bool { return e.exhausted }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// SetHorizon stops the run when the clock would pass t. Events scheduled at
// exactly t still fire.
func (e *Engine) SetHorizon(t float64) { e.maxT = t }

// Halt stops the run after the current event handler returns.
func (e *Engine) Halt() { e.halted = true }

// Schedule enqueues fn to fire at absolute time at. Scheduling in the past
// panics: it always indicates a logic error in the caller, and silently
// clamping would corrupt causality.
func (e *Engine) Schedule(at float64, fn Action) Handle {
	return e.ScheduleTag(at, 0, fn)
}

// ScheduleTag is Schedule with an opaque classification tag attached to the
// event. The engine never interprets tags; Clone hands them back so a fork
// can rebind each pending event's action. Plain Schedule leaves the tag
// zero ("unclassified").
func (e *Engine) ScheduleTag(at float64, tag uint64, fn Action) Handle {
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
	ev.seq = e.seq
	ev.tag = tag
	ev.fire = fn
	ev.index = -1
	heap.Push(&e.queue, ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After enqueues fn to fire d seconds from now.
func (e *Engine) After(d float64, fn Action) Handle {
	return e.ScheduleTag(e.now+d, 0, fn)
}

// AfterTag enqueues fn to fire d seconds from now with a classification tag.
func (e *Engine) AfterTag(d float64, tag uint64, fn Action) Handle {
	return e.ScheduleTag(e.now+d, tag, fn)
}

// Every schedules fn at absolute time start and then every interval seconds
// for as long as other events remain queued. The self-rescheduling stops as
// soon as the tick is the only thing left, so a periodic task (telemetry
// sampling, progress reporting) never keeps the queue from draining or the
// run from terminating. A non-positive interval panics.
func (e *Engine) Every(start, interval float64, fn Action) {
	e.EveryTag(start, interval, 0, fn)
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
	heap.Remove(&e.queue, h.ev.index)
	e.recycle(h.ev)
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
	return e.ScheduleTag(at, tag, fn)
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	if ev.at > e.maxT {
		return false
	}
	heap.Pop(&e.queue)
	e.now = ev.at
	e.fired++
	fn := ev.fire
	// Handles to ev stay valid (and inert: index is -1) while the handler
	// runs; the storage is recycled only after it returns.
	fn(e)
	e.recycle(ev)
	return true
}

// Run fires events until the queue is empty, the horizon is reached, the
// event budget is exhausted, or Halt is called. It returns the final
// simulated time.
func (e *Engine) Run() float64 {
	e.halted = false
	e.exhausted = false
	for !e.halted {
		if e.maxEvents > 0 && e.fired >= e.maxEvents {
			e.exhausted = true
			break
		}
		if !e.Step() {
			break
		}
	}
	return e.now
}

// RunUntil runs the engine, stopping before any event later than t fires.
// The clock is left at the time of the last fired event.
func (e *Engine) RunUntil(t float64) float64 {
	old := e.maxT
	e.maxT = t
	e.Run()
	e.maxT = old
	return e.now
}
