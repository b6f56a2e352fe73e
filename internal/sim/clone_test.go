package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// A cloned engine must replay exactly the schedule the original would have
// run: same firing order, same times, same periodic-tick cadence, and
// rebound handles must stay operable (reschedulable) in the clone.
func TestCloneReplaysIdentically(t *testing.T) {
	type firing struct {
		T   float64
		Tag uint64
	}
	build := func(log *[]firing) *Engine {
		e := New()
		rec := func(tag uint64) Action {
			return func(e *Engine) { *log = append(*log, firing{e.Now(), tag}) }
		}
		e.Schedule(1, 100, rec(100))
		e.Schedule(5, 101, rec(101))
		e.Schedule(5, 102, rec(102)) // same time: seq order matters
		e.Schedule(9, 103, rec(103))
		e.Every(0, 2, 200, rec(200))
		return e
	}

	var refLog []firing
	ref := build(&refLog)
	run(ref)

	// Same construction, but stop at t=4, clone, and let the clone finish.
	var baseLog, cloneLog []firing
	base := build(&baseLog)
	runUntil(base, 4)
	clone, handles := base.Clone(func(tag uint64) Action {
		if tag == 200 {
			return Periodic(2, 200, func(e *Engine) { cloneLog = append(cloneLog, firing{e.Now(), 200}) })
		}
		return func(e *Engine) { cloneLog = append(cloneLog, firing{e.Now(), tag}) }
	})
	for _, tag := range []uint64{101, 102, 103} {
		h, ok := handles[tag]
		if !ok || !h.Pending() {
			t.Fatalf("tag %d: no live handle in clone", tag)
		}
	}
	if got, want := clone.Now(), base.Now(); got != want {
		t.Fatalf("clone clock %g, base %g", got, want)
	}
	run(clone)

	want := append(append([]firing{}, baseLog...), cloneLog...)
	if !reflect.DeepEqual(refLog, want) {
		t.Fatalf("clone diverged:\nref   %v\nsplit %v", refLog, want)
	}

	// The base is untouched by the clone's run and finishes on its own.
	run(base)
	if !reflect.DeepEqual(refLog, baseLog) {
		t.Fatalf("base perturbed by clone:\nref  %v\nbase %v", refLog, baseLog)
	}
}

// Rescheduling through a rebound handle must move the cloned event without
// touching the original engine's copy.
func TestCloneHandleReschedule(t *testing.T) {
	e := New()
	fired := ""
	e.Schedule(3, 7, func(*Engine) { fired += "orig" })
	clone, handles := e.Clone(func(tag uint64) Action {
		return func(*Engine) { fired += fmt.Sprintf("clone@%d", tag) }
	})
	h := handles[7]
	clone.Reschedule(h, 10)
	run(clone)
	if clone.Now() != 10 || fired != "clone@7" {
		t.Fatalf("clone: now=%g fired=%q", clone.Now(), fired)
	}
	run(e)
	if e.Now() != 3 || fired != "clone@7orig" {
		t.Fatalf("original: now=%g fired=%q", e.Now(), fired)
	}
}

func TestCloneRejectsUnboundTag(t *testing.T) {
	e := New()
	e.Schedule(1, 9, func(*Engine) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Clone with nil rebind result did not panic")
		}
	}()
	e.Clone(func(uint64) Action { return nil })
}
