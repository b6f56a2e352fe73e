package sim

import (
	"fmt"
	"math"
)

// This file implements engine forking for copy-on-write simulation
// snapshots. Event actions are closures over the owning simulator, so a
// cloned engine cannot reuse them: the caller supplies a rebind function
// that maps each pending event's tag to a fresh action bound to the forked
// simulator. Everything else — clock, seq counter, heap layout, generation
// stamps, horizon, budget — is copied exactly, so the clone fires the same
// events at the same times in the same order as the original would.

// Periodic returns a self-rescheduling action: each firing runs fn and, if
// other events remain pending, schedules the next tick interval seconds
// later under the same tag. It is the action form of Every — EveryTag
// schedules it, and a forked simulator rebinds a pending tick by scheduling
// a fresh Periodic with the original interval and tag.
func Periodic(interval float64, tag uint64, fn Action) Action {
	var tick Action
	tick = func(e *Engine) {
		fn(e)
		// The firing tick has already been popped, so Pending counts only
		// other work; reschedule only while there is some.
		if e.Pending() > 0 {
			e.ScheduleTag(e.now+interval, tag, tick)
		}
	}
	return tick
}

// EveryTag is Every with a classification tag on the tick events, so a fork
// can rebind them.
func (e *Engine) EveryTag(start, interval float64, tag uint64, fn Action) {
	if interval <= 0 || math.IsNaN(interval) {
		panic(fmt.Sprintf("sim: EveryTag with interval %g", interval))
	}
	e.ScheduleTag(start, tag, Periodic(interval, tag, fn))
}

// Clone returns a deep copy of the engine with every pending event's action
// rebound through rebind, plus a handle map letting the caller re-attach its
// retained Handles: for every pending event with a nonzero tag, the map
// holds the clone's replacement handle under that tag.
//
// The copy is exact — clock, seq counter, fired count, horizon, event
// budget, and the heap array element-for-element (at, seq, tag, generation,
// position) — so the clone's future pop order, seq assignment, and Pending
// counts are indistinguishable from the original's. The event pool is not
// copied; the clone re-grows its own storage.
//
// rebind must return a non-nil action for every pending tag (zero included,
// if any untagged events are pending), and nonzero tags must be unique among
// pending events — both panic otherwise, because a silently dropped or
// misbound event would corrupt the branch's timeline.
func (e *Engine) Clone(rebind func(tag uint64) Action) (*Engine, map[uint64]Handle) {
	c := &Engine{
		now:       e.now,
		seq:       e.seq,
		fired:     e.fired,
		maxT:      e.maxT,
		maxEvents: e.maxEvents,
		halted:    e.halted,
		exhausted: e.exhausted,
	}
	c.queue = make(eventQueue, len(e.queue))
	handles := make(map[uint64]Handle, len(e.queue))
	for i, ev := range e.queue {
		fn := rebind(ev.tag)
		if fn == nil {
			panic(fmt.Sprintf("sim: Clone: no action for pending event tag %#x", ev.tag))
		}
		nev := &Event{at: ev.at, seq: ev.seq, index: i, gen: ev.gen, tag: ev.tag, fire: fn}
		c.queue[i] = nev
		if ev.tag != 0 {
			if _, dup := handles[ev.tag]; dup {
				panic(fmt.Sprintf("sim: Clone: duplicate pending event tag %#x", ev.tag))
			}
			handles[ev.tag] = Handle{ev: nev, gen: nev.gen}
		}
	}
	return c, handles
}
