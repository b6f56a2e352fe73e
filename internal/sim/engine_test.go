package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, 0, func(*Engine) { got = append(got, 3) })
	e.Schedule(1, 0, func(*Engine) { got = append(got, 1) })
	e.Schedule(2, 0, func(*Engine) { got = append(got, 2) })
	run(e)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %g, want 3", e.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	e := New()
	var got []string
	e.Schedule(5, 0, func(*Engine) { got = append(got, "a") })
	e.Schedule(5, 0, func(*Engine) { got = append(got, "b") })
	e.Schedule(5, 0, func(*Engine) { got = append(got, "c") })
	run(e)
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie-break violated insertion order: %v", got)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var at float64
	e.Schedule(10, 0, func(e *Engine) {
		e.After(5, 0, func(e *Engine) { at = e.Now() })
	})
	run(e)
	if at != 15 {
		t.Fatalf("After fired at %g, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.Schedule(1, 0, func(*Engine) { fired = true })
	e.Cancel(h)
	run(e)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(h)
	e.Cancel(Handle{})
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := New()
	h := e.Schedule(1, 0, func(*Engine) {})
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Cancel(h)
	if e.Pending() != 0 {
		t.Fatalf("pending after cancel = %d, want 0", e.Pending())
	}
}

func TestReschedule(t *testing.T) {
	e := New()
	var at float64
	h := e.Schedule(10, 0, func(e *Engine) { at = e.Now() })
	h = e.Reschedule(h, 20)
	if got := h.At(); got != 20 {
		t.Fatalf("At() = %g after reschedule, want 20", got)
	}
	run(e)
	if at != 20 {
		t.Fatalf("rescheduled event fired at %g, want 20", at)
	}
	if e.Fired() != 1 {
		t.Fatalf("fired = %d, want 1 (original must not fire)", e.Fired())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, 0, func(*Engine) {})
	run(e)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, 0, func(*Engine) {})
}

// runUntil fires every event due at or before limit and returns the clock.
func runUntil(e *Engine, limit float64) float64 {
	for e.Step(limit) {
	}
	return e.Now()
}

// run fires events until the queue drains and returns the clock.
func run(e *Engine) float64 { return runUntil(e, math.Inf(1)) }

// TestHorizon steps to a limit between events: the events due at or before
// it fire, the later ones stay queued.
func TestHorizon(t *testing.T) {
	e := New()
	var got []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.Schedule(at, 0, func(*Engine) { got = append(got, at) })
	}
	if now := runUntil(e, 2.5); len(got) != 2 || now != 2 {
		t.Fatalf("fired %v to t=%g, want events at 1 and 2 only", got, now)
	}
	// Remaining events still fire with the limit lifted.
	run(e)
	if len(got) != 4 {
		t.Fatalf("fired %v after resume, want all 4", got)
	}
}

func TestRecurringEvent(t *testing.T) {
	e := New()
	count := 0
	var tick Action
	tick = func(e *Engine) {
		count++
		if count < 5 {
			e.After(30, 0, tick)
		}
	}
	e.After(30, 0, tick)
	run(e)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	if e.Now() != 150 {
		t.Fatalf("clock = %g, want 150", e.Now())
	}
}

// TestStaleHandleIsInert pins down the pool-safety contract: once an event
// has fired, its handle is spent, and cancelling it must not disturb a new
// event that was given the recycled storage.
func TestStaleHandleIsInert(t *testing.T) {
	e := New()
	var stale Handle
	stale = e.Schedule(1, 0, func(*Engine) {})
	run(e)
	if stale.Pending() {
		t.Fatal("handle still pending after its event fired")
	}
	if !math.IsNaN(stale.At()) {
		t.Fatalf("At() on spent handle = %g, want NaN", stale.At())
	}

	// The next Schedule reuses the fired event's storage (pool of one).
	fired := false
	fresh := e.Schedule(2, 0, func(*Engine) { fired = true })
	e.Cancel(stale) // must NOT cancel the fresh event
	run(e)
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	_ = fresh
}

// TestCancelDuringHandler checks that a handler cancelling other pending
// events (the simulator's teardown pattern) works and that self-cancel of
// the currently-firing event is a no-op rather than a double-recycle.
func TestCancelDuringHandler(t *testing.T) {
	e := New()
	firedB := false
	var ha, hb Handle
	ha = e.Schedule(1, 0, func(e *Engine) {
		e.Cancel(ha) // self: already popped, must be inert
		e.Cancel(hb)
	})
	hb = e.Schedule(2, 0, func(*Engine) { firedB = true })
	run(e)
	if firedB {
		t.Fatal("event cancelled from a handler still fired")
	}
	if e.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", e.Fired())
	}
}

// TestRescheduleSpentPanics pins the contract that Reschedule requires a
// pending handle — silently rescheduling a recycled event would fire some
// other event's action.
func TestReschedulePanicsOnSpentHandle(t *testing.T) {
	e := New()
	h := e.Schedule(1, 0, func(*Engine) {})
	run(e)
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a spent handle did not panic")
		}
	}()
	e.Reschedule(h, 5)
}

// Property: for any set of schedule times, events fire in sorted order and
// the clock never moves backwards.
func TestQuickFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []float64
		for _, r := range raw {
			at := float64(r)
			e.Schedule(at, 0, func(e *Engine) { fired = append(fired, e.Now()) })
		}
		run(e)
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		want := 0
		fired := 0
		for _, r := range raw {
			h := e.Schedule(float64(r), 0, func(*Engine) { fired++ })
			if rng.Intn(2) == 0 {
				e.Cancel(h)
			} else {
				want++
			}
		}
		run(e)
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%97), 0, func(*Engine) {})
		}
		run(e)
	}
}

// BenchmarkEngineScheduleCancel measures the schedule/cancel/reschedule
// churn of a long-lived engine — the pattern the simulator's completion
// events follow. With the event pool this is allocation-free at steady
// state.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := New()
	// Warm the pool and keep a rolling window of pending events.
	var hs [64]Handle
	for i := range hs {
		hs[i] = e.Schedule(float64(i)+1e6, 0, func(*Engine) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % len(hs)
		e.Cancel(hs[slot])
		hs[slot] = e.Schedule(float64(i)+1e6, 0, func(*Engine) {})
		hs[slot] = e.Reschedule(hs[slot], float64(i)+2e6)
	}
	b.StopTimer()
	for _, h := range hs {
		e.Cancel(h)
	}
}

func TestEveryStopsWhenQueueDrains(t *testing.T) {
	e := New()
	var work, ticks []float64
	for _, at := range []float64{5, 12, 29} {
		at := at
		e.Schedule(at, 0, func(*Engine) { work = append(work, at) })
	}
	e.Every(0, 10, 0, func(e *Engine) { ticks = append(ticks, e.Now()) })
	run(e)

	if want := []float64{5, 12, 29}; !reflect.DeepEqual(work, want) {
		t.Fatalf("work fired at %v, want %v", work, want)
	}
	// Ticks at 0, 10, 20, 30; the tick at 30 finds the queue empty and does
	// not reschedule, so the run terminates.
	if want := []float64{0, 10, 20, 30}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("ticks fired at %v, want %v", ticks, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still queued after Run", e.Pending())
	}
}

func TestEveryAloneFiresOnce(t *testing.T) {
	e := New()
	n := 0
	e.Every(3, 10, 0, func(*Engine) { n++ })
	run(e)
	if n != 1 {
		t.Fatalf("lone periodic fired %d times, want 1", n)
	}
	if e.Now() != 3 {
		t.Fatalf("clock at %g, want 3", e.Now())
	}
}

func TestEveryBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(_, 0, _, _) did not panic")
		}
	}()
	New().Every(0, 0, 0, func(*Engine) {})
}

// refQueue is the engine's former queue, kept as the reference for the
// typed 4-ary heap: container/heap over event pointers ordered by
// (at, seq).
type refQueue []*refEvent

type refEvent struct {
	at    float64
	seq   uint64
	id    int
	index int // -1 once popped or cancelled
}

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	ev.index = -1
	*q = old[:len(old)-1]
	return ev
}

// refEngine is the reference engine: a clock, a seq counter and a
// refQueue, with events named by id.
type refEngine struct {
	now  float64
	seq  uint64
	q    refQueue
	byID map[int]*refEvent
}

func (r *refEngine) schedule(at float64, id int) {
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, id: id}
	heap.Push(&r.q, ev)
	r.byID[id] = ev
}

func (r *refEngine) cancel(id int) {
	if ev := r.byID[id]; ev != nil {
		heap.Remove(&r.q, ev.index)
		delete(r.byID, id)
	}
}

func (r *refEngine) step() (int, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	ev := heap.Pop(&r.q).(*refEvent)
	delete(r.byID, ev.id)
	r.now = ev.at
	return ev.id, true
}

func (r *refEngine) clone() *refEngine {
	c := &refEngine{now: r.now, seq: r.seq, q: make(refQueue, len(r.q)), byID: map[int]*refEvent{}}
	for i, ev := range r.q {
		nev := *ev
		c.q[i] = &nev
		c.byID[ev.id] = &nev
	}
	return c
}

// engineOrderCase drives the engine and the reference through one
// operation sequence decoded from data — schedule at a small offset from
// now (so times tie often), cancel, reschedule, step, and Clone, after
// which the clone carries on and the original is drained — and fails on
// the first difference in fire order, Pending or a handle's At.
func engineOrderCase(t *testing.T, data []byte) {
	eng, ref := New(), &refEngine{byID: map[int]*refEvent{}}
	handles := map[int]Handle{}
	var fired []int
	action := func(id int) Action { return func(*Engine) { fired = append(fired, id) } }
	check := func(op int) {
		t.Helper()
		if eng.Pending() != len(ref.q) {
			t.Fatalf("op %d: Pending %d, reference %d", op, eng.Pending(), len(ref.q))
		}
		for id, h := range handles {
			ev := ref.byID[id]
			if h.Pending() != (ev != nil) {
				t.Fatalf("op %d: event %d Pending %v, reference %v", op, id, h.Pending(), ev != nil)
			}
			if ev != nil && h.At() != ev.at {
				t.Fatalf("op %d: event %d At %g, reference %g", op, id, h.At(), ev.at)
			}
		}
	}
	step := func(op int) {
		t.Helper()
		fired = fired[:0]
		ok := eng.Step(math.Inf(1))
		id, refOK := ref.step()
		if ok != refOK || ok && (len(fired) != 1 || fired[0] != id || eng.Now() != ref.now) {
			t.Fatalf("op %d: Step fired %v at %g (ok %v), reference %d at %g (ok %v)", op, fired, eng.Now(), ok, id, ref.now, refOK)
		}
		if ok {
			delete(handles, id)
		}
	}
	// pick maps a byte to one of the live events, in id order.
	pick := func(b byte) (int, bool) {
		if len(ref.byID) == 0 {
			return 0, false
		}
		ids := make([]int, 0, len(ref.byID))
		for id := range ref.byID {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids[int(b)%len(ids)], true
	}
	next := 1
	for op := 0; op+1 < len(data); op += 2 {
		code, arg := data[op], data[op+1]
		switch code % 8 {
		case 0, 1, 2: // schedule
			at := eng.Now() + float64(arg%4)
			handles[next] = eng.Schedule(at, uint64(next), action(next))
			ref.schedule(at, next)
			next++
		case 3: // cancel
			if id, ok := pick(arg); ok {
				eng.Cancel(handles[id])
				ref.cancel(id)
				delete(handles, id)
			}
		case 4: // reschedule under the same id
			if id, ok := pick(arg); ok {
				at := eng.Now() + float64(arg%3)
				handles[id] = eng.Reschedule(handles[id], at)
				ref.cancel(id)
				ref.schedule(at, id)
			}
		case 5, 6: // step
			step(op)
		case 7: // clone; the original drains against a copy of the reference
			c, hs := eng.Clone(func(tag uint64) Action { return action(int(tag)) })
			orig, origRef := eng, ref.clone()
			eng = c
			for id := range handles {
				handles[id] = hs[uint64(id)]
			}
			for {
				fired = fired[:0]
				ok := orig.Step(math.Inf(1))
				id, refOK := origRef.step()
				if ok != refOK || ok && (len(fired) != 1 || fired[0] != id) {
					t.Fatalf("op %d: cloned-from engine fired %v (ok %v), reference %d (ok %v)", op, fired, ok, id, refOK)
				}
				if !ok {
					break
				}
			}
		}
		check(op)
	}
	for eng.Pending() > 0 {
		step(len(data))
		check(len(data))
	}
	if _, ok := ref.step(); ok {
		t.Fatal("reference has events left after the engine drained")
	}
}

// FuzzEngineOrder holds the typed event heap to the container/heap
// reference under random schedule, cancel, reschedule, step and Clone
// sequences with tied times.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 5, 0, 3, 1, 4, 2, 7, 0, 5, 0, 0, 3, 6, 0})
	f.Add([]byte{0, 3, 1, 3, 2, 3, 0, 3, 0, 3, 4, 0, 4, 1, 3, 2, 5, 0, 7, 9, 4, 4, 5, 5, 5, 5})
	f.Add([]byte{})
	f.Fuzz(engineOrderCase)
}

// TestEngineMatchesReference runs the fuzz body over longer random
// sequences than the seed corpus holds.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(data)
		engineOrderCase(t, data)
	}
}

// TestStepAllocationFree asserts a warm Step whose action reschedules
// itself (a pre-bound action, as the simulator binds its update events)
// allocates nothing: the event storage is recycled and the heap array
// keeps its capacity.
func TestStepAllocationFree(t *testing.T) {
	e := New()
	var tick Action
	tick = func(e *Engine) { e.After(1, 1, tick) }
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i%7), 0, tick)
	}
	for i := 0; i < 64; i++ {
		e.Step(math.Inf(1))
	}
	if got := testing.AllocsPerRun(1000, func() { e.Step(math.Inf(1)) }); got != 0 {
		t.Fatalf("warm Step allocates %.1f per call, want 0", got)
	}
}
