package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue
	q.Push(Entry{Job: 1, Enqueue: 10})
	q.Push(Entry{Job: 2, Enqueue: 5})
	q.Push(Entry{Job: 3, Enqueue: 20})
	got := q.Items(0)
	want := []int{2, 1, 3}
	for i, e := range got {
		if e.Job != want[i] {
			t.Fatalf("order = %v, want %v", ids(got), want)
		}
	}
}

func TestQueuePriorityBeatsEnqueue(t *testing.T) {
	var q Queue
	q.Push(Entry{Job: 1, Enqueue: 0, Priority: 0})
	q.Push(Entry{Job: 2, Enqueue: 100, Priority: 5})
	h, ok := q.Head()
	if !ok || h.Job != 2 {
		t.Fatalf("head = %+v, want prioritised job 2", h)
	}
}

func TestQueueStableOnTies(t *testing.T) {
	var q Queue
	for i := 1; i <= 5; i++ {
		q.Push(Entry{Job: i, Enqueue: 7})
	}
	got := ids(q.Items(0))
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("tie order = %v, want insertion order", got)
		}
	}
}

func TestQueueItemsLimit(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(Entry{Job: i, Enqueue: float64(i)})
	}
	if got := len(q.Items(3)); got != 3 {
		t.Fatalf("limited items = %d, want 3", got)
	}
	if got := len(q.Items(0)); got != 10 {
		t.Fatalf("unlimited items = %d, want 10", got)
	}
	if got := len(q.Items(100)); got != 10 {
		t.Fatalf("over-limit items = %d, want 10", got)
	}
}

func TestQueueRemoveContains(t *testing.T) {
	var q Queue
	q.Push(Entry{Job: 1})
	q.Push(Entry{Job: 2})
	if !q.Contains(1) {
		t.Fatal("Contains(1) = false")
	}
	if !q.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if q.Contains(1) {
		t.Fatal("job 1 still present after Remove")
	}
	if q.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

func ids(es []Entry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.Job
	}
	return out
}

func TestDemandFits(t *testing.T) {
	r := Resources{NormalNodes: 4, LargeNodes: 2, FreeMB: 1000}
	cases := []struct {
		d    Demand
		want bool
	}{
		{Demand{Nodes: 6}, true},
		{Demand{Nodes: 7}, false},
		{Demand{Nodes: 2, LargeOnly: true}, true},
		{Demand{Nodes: 3, LargeOnly: true}, false},
		{Demand{Nodes: 1, UsePool: true, PooledMB: 1000}, true},
		{Demand{Nodes: 1, UsePool: true, PooledMB: 1001}, false},
		{Demand{Nodes: 1, PooledMB: 9999}, true}, // pool ignored when UsePool=false
	}
	for i, tc := range cases {
		if got := tc.d.Fits(r); got != tc.want {
			t.Errorf("case %d: Fits = %v, want %v", i, got, tc.want)
		}
	}
}

func TestShadowTimeImmediate(t *testing.T) {
	now := Resources{NormalNodes: 10, FreeMB: 1000}
	got := ShadowTime(42, now, releaseList(nil), Demand{Nodes: 5})
	if got != 42 {
		t.Fatalf("shadow = %g, want now (42)", got)
	}
}

func TestShadowTimeAccumulatesReleases(t *testing.T) {
	now := Resources{NormalNodes: 1, FreeMB: 100}
	releases := []Release{
		{At: 300, Res: Resources{NormalNodes: 2, FreeMB: 200}},
		{At: 100, Res: Resources{NormalNodes: 1, FreeMB: 100}},
		{At: 200, Res: Resources{NormalNodes: 1, FreeMB: 100}},
	}
	// Needs 4 nodes and 400 MB: satisfied after the t=300 release
	// (1+1+1+2 nodes, 100+100+100+200 MB).
	d := Demand{Nodes: 4, UsePool: true, PooledMB: 400}
	if got := ShadowTime(0, now, ordered(releases), d); got != 300 {
		t.Fatalf("shadow = %g, want 300", got)
	}
	// Needs 2 nodes only: the t=100 release suffices.
	if got := ShadowTime(0, now, ordered(releases), Demand{Nodes: 2}); got != 100 {
		t.Fatalf("shadow = %g, want 100", got)
	}
}

func TestShadowTimeInfeasible(t *testing.T) {
	now := Resources{NormalNodes: 1}
	rel := []Release{{At: 10, Res: Resources{NormalNodes: 1}}}
	got := ShadowTime(0, now, ordered(rel), Demand{Nodes: 5})
	if !math.IsInf(got, 1) {
		t.Fatalf("shadow = %g, want +Inf", got)
	}
}

func TestShadowTimePastReleaseClampsToNow(t *testing.T) {
	// A release recorded in the past (job overran its limit) must not
	// produce a shadow time before now.
	now := Resources{}
	rel := []Release{{At: 5, Res: Resources{NormalNodes: 1}}}
	if got := ShadowTime(50, now, ordered(rel), Demand{Nodes: 1}); got != 50 {
		t.Fatalf("shadow = %g, want clamped to now 50", got)
	}
}

func TestCanBackfill(t *testing.T) {
	if !CanBackfill(100, 50, 150) {
		t.Fatal("job ending exactly at shadow must backfill")
	}
	if CanBackfill(100, 51, 150) {
		t.Fatal("job ending after shadow must not backfill")
	}
	if !CanBackfill(100, 1e9, math.Inf(1)) {
		t.Fatal("infinite shadow must allow backfill")
	}
}

// Property: ShadowTime is monotone in demand — asking for more resources
// never yields an earlier shadow time.
func TestQuickShadowMonotoneInDemand(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		now := Resources{
			NormalNodes: rng.Intn(10),
			LargeNodes:  rng.Intn(5),
			FreeMB:      rng.Int63n(1000),
		}
		var rel []Release
		for i := 0; i < rng.Intn(8); i++ {
			rel = append(rel, Release{
				At: rng.Float64() * 1000,
				Res: Resources{
					NormalNodes: rng.Intn(4),
					LargeNodes:  rng.Intn(2),
					FreeMB:      rng.Int63n(500),
				},
			})
		}
		small := Demand{Nodes: 1 + rng.Intn(5), UsePool: true, PooledMB: rng.Int63n(800)}
		big := Demand{Nodes: small.Nodes + rng.Intn(5), UsePool: true, PooledMB: small.PooledMB + rng.Int63n(500)}
		ts := ShadowTime(0, now, ordered(rel), small)
		tb := ShadowTime(0, now, ordered(rel), big)
		return ts <= tb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the demand always fits at the returned (finite) shadow time
// given all releases up to that time.
func TestQuickShadowSufficient(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		now := Resources{NormalNodes: rng.Intn(3), FreeMB: rng.Int63n(100)}
		var rel []Release
		for i := 0; i < 1+rng.Intn(10); i++ {
			rel = append(rel, Release{
				At:  rng.Float64() * 100,
				Res: Resources{NormalNodes: rng.Intn(3), FreeMB: rng.Int63n(200)},
			})
		}
		d := Demand{Nodes: rng.Intn(8), UsePool: true, PooledMB: rng.Int63n(600)}
		ts := ShadowTime(0, now, ordered(rel), d)
		if math.IsInf(ts, 1) {
			// Must genuinely not fit even with everything released.
			avail := now
			for _, r := range rel {
				avail = avail.Add(r.Res)
			}
			return !d.Fits(avail)
		}
		avail := now
		for _, r := range rel {
			if r.At <= ts {
				avail = avail.Add(r.Res)
			}
		}
		return d.Fits(avail)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePeakLen(t *testing.T) {
	var q Queue
	if q.PeakLen() != 0 {
		t.Fatalf("empty queue peak = %d", q.PeakLen())
	}
	q.Push(Entry{Job: 1})
	q.Push(Entry{Job: 2})
	q.Push(Entry{Job: 3})
	q.Remove(2)
	q.Remove(1)
	// The high-watermark survives drains and is not raised by a push that
	// stays below it.
	q.Push(Entry{Job: 4})
	if q.Len() != 2 || q.PeakLen() != 3 {
		t.Fatalf("len = %d peak = %d, want 2 and 3", q.Len(), q.PeakLen())
	}
	q.Push(Entry{Job: 5})
	q.Push(Entry{Job: 6})
	if q.PeakLen() != 4 {
		t.Fatalf("peak = %d after growing past the old mark, want 4", q.PeakLen())
	}
}
