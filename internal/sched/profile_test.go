package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProfileImmediateFit(t *testing.T) {
	p := NewProfile(0, Resources{NormalNodes: 4, FreeMB: 1000}, releaseList(nil))
	d := Demand{Nodes: 2, UsePool: true, PooledMB: 500}
	if got := p.EarliestFit(d, 0, 100); got != 0 {
		t.Fatalf("fit = %g, want 0", got)
	}
}

func TestProfileWaitsForRelease(t *testing.T) {
	p := NewProfile(0, Resources{NormalNodes: 1}, ordered([]Release{
		{At: 50, Res: Resources{NormalNodes: 1}},
		{At: 200, Res: Resources{NormalNodes: 2}},
	}))
	if got := p.EarliestFit(Demand{Nodes: 2}, 0, 100); got != 50 {
		t.Fatalf("2-node fit = %g, want 50", got)
	}
	if got := p.EarliestFit(Demand{Nodes: 4}, 0, 100); got != 200 {
		t.Fatalf("4-node fit = %g, want 200", got)
	}
	if got := p.EarliestFit(Demand{Nodes: 9}, 0, 100); !math.IsInf(got, 1) {
		t.Fatalf("9-node fit = %g, want +Inf", got)
	}
}

func TestProfileOverdueReleaseCountsNow(t *testing.T) {
	p := NewProfile(100, Resources{}, ordered([]Release{{At: 30, Res: Resources{NormalNodes: 1}}}))
	if got := p.EarliestFit(Demand{Nodes: 1}, 100, 10); got != 100 {
		t.Fatalf("fit = %g, want now (100)", got)
	}
}

func TestProfileReserveBlocksWindow(t *testing.T) {
	p := NewProfile(0, Resources{NormalNodes: 2, FreeMB: 1000}, releaseList(nil))
	d := Demand{Nodes: 2, UsePool: true, PooledMB: 600}
	// Reserve both nodes over [100, 200).
	p.Reserve(d, 100, 100)
	// A one-node job fits before, not during, again after.
	one := Demand{Nodes: 1, UsePool: true, PooledMB: 500}
	if got := p.EarliestFit(one, 0, 100); got != 0 {
		t.Fatalf("pre-window fit = %g, want 0", got)
	}
	if got := p.EarliestFit(one, 100, 50); got != 200 {
		t.Fatalf("in-window fit = %g, want 200", got)
	}
	// A job overlapping the window from before cannot start at 50.
	if got := p.EarliestFit(one, 50, 100); got != 200 {
		t.Fatalf("overlapping fit = %g, want 200", got)
	}
}

func TestProfileSubtractLargeNodes(t *testing.T) {
	p := NewProfile(0, Resources{NormalNodes: 2, LargeNodes: 2}, releaseList(nil))
	// A large-only demand consumes large nodes.
	p.Reserve(Demand{Nodes: 2, LargeOnly: true}, 0, 100)
	if got := p.EarliestFit(Demand{Nodes: 1, LargeOnly: true}, 0, 10); got != 100 {
		t.Fatalf("large fit = %g, want 100", got)
	}
	// Normal nodes remain usable during the window.
	if got := p.EarliestFit(Demand{Nodes: 2}, 0, 10); got != 0 {
		t.Fatalf("normal fit = %g, want 0", got)
	}
}

func TestProfileSubtractOverflowsToLarge(t *testing.T) {
	p := NewProfile(0, Resources{NormalNodes: 1, LargeNodes: 2}, releaseList(nil))
	// A 2-node unrestricted demand takes the normal node plus one large.
	p.Reserve(Demand{Nodes: 2}, 0, 100)
	if got := p.EarliestFit(Demand{Nodes: 1, LargeOnly: true}, 0, 10); got != 0 {
		t.Fatalf("one large node must remain: fit = %g", got)
	}
	if got := p.EarliestFit(Demand{Nodes: 2}, 0, 10); got != 100 {
		t.Fatalf("second 2-node fit = %g, want 100", got)
	}
}

func TestProfileConservativeNoDelayInvariant(t *testing.T) {
	// Jobs reserved in queue order: later reservations never move
	// earlier ones (re-probing an earlier demand still fits at its
	// reserved time).
	rng := rand.New(rand.NewSource(9))
	p := NewProfile(0, Resources{NormalNodes: 8, FreeMB: 8000}, ordered([]Release{
		{At: 500, Res: Resources{NormalNodes: 4, FreeMB: 4000}},
	}))
	type reserved struct {
		d       Demand
		at, dur float64
	}
	var done []reserved
	for i := 0; i < 20; i++ {
		d := Demand{Nodes: 1 + rng.Intn(6), UsePool: true, PooledMB: rng.Int63n(5000)}
		dur := 10 + rng.Float64()*500
		at := p.EarliestFit(d, 0, dur)
		if math.IsInf(at, 1) {
			continue
		}
		p.Reserve(d, at, dur)
		done = append(done, reserved{d, at, dur})
	}
	if len(done) == 0 {
		t.Skip("nothing reservable")
	}
	// All reservations were subtracted; the profile must never have
	// gone negative for them to fit (fitsOver was checked first); spot
	// check the final profile is still consistent for a zero demand.
	if got := p.EarliestFit(Demand{}, 0, 1); got != 0 {
		t.Fatalf("empty demand fit = %g", got)
	}
}

// Property: EarliestFit is monotone in `after` and Reserve never makes an
// unrelated earlier fit later than the reserved window's end.
func TestQuickEarliestFitMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfile(0, Resources{
			NormalNodes: rng.Intn(8),
			LargeNodes:  rng.Intn(4),
			FreeMB:      rng.Int63n(4000),
		}, ordered([]Release{
			{At: rng.Float64() * 100, Res: Resources{NormalNodes: rng.Intn(4), FreeMB: rng.Int63n(2000)}},
			{At: rng.Float64() * 300, Res: Resources{LargeNodes: rng.Intn(3)}},
		}))
		d := Demand{Nodes: 1 + rng.Intn(6), UsePool: true, PooledMB: rng.Int63n(3000)}
		dur := 1 + rng.Float64()*200
		a := rng.Float64() * 100
		b := a + rng.Float64()*200
		fa := p.EarliestFit(d, a, dur)
		fb := p.EarliestFit(d, b, dur)
		if fa > fb {
			return false
		}
		return fa >= a || math.IsInf(fa, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
