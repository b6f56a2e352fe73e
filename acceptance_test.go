package dismem

// Reproduction acceptance suite: each test asserts one qualitative claim of
// the paper at the Bench preset scale. These are the checks a reviewer
// would run to confirm the reproduction still reproduces after a change —
// they test *shape* (who wins, where bars go missing, how trends move), not
// absolute numbers.

import (
	"math"
	"testing"

	"dismem/internal/experiments"
	"dismem/internal/policy"
)

func accPreset() experiments.Preset { return experiments.Bench() }

// Claim (§4.1): with accurate requests and no large jobs, the disaggregated
// policies maintain full performance at 37 % memory while the baseline
// needs 50 %.
func TestClaimSmallJobsFullThroughputAtLowProvisioning(t *testing.T) {
	p := accPreset()
	g, err := p.SyntheticGrid(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Rows {
		if r.MemPct != 37 {
			continue
		}
		if math.IsNaN(r.Static) || math.IsNaN(r.Dynamic) {
			t.Fatal("disaggregated policies infeasible at 37%")
		}
		if r.Static < 0.9 || r.Dynamic < 0.9 {
			t.Fatalf("at 37%% memory: static %.3f dynamic %.3f, want ≥0.9", r.Static, r.Dynamic)
		}
	}
}

// Claim (§4.1): with +60 % overestimation, some jobs cannot be executed by
// the baseline policy at all (missing bars), while both disaggregated
// policies still run everything at 100 % memory.
func TestClaimBaselineInfeasibleUnderOverestimation(t *testing.T) {
	p := accPreset()
	g, err := p.SyntheticGrid(0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Rows {
		if !math.IsNaN(r.Baseline) {
			t.Fatalf("baseline feasible at %d%% despite +60%% overestimation on large jobs", r.MemPct)
		}
	}
	last := g.Rows[len(g.Rows)-1]
	if math.IsNaN(last.Static) || math.IsNaN(last.Dynamic) {
		t.Fatal("disaggregated policies infeasible at 100% memory")
	}
}

// Claim (§4.1, §4.4): the dynamic policy's advantage grows as the system is
// underprovisioned — the static−dynamic gap at the lowest feasible memory
// exceeds the gap at full memory.
func TestClaimDynamicAdvantageGrowsWhenUnderprovisioned(t *testing.T) {
	p := accPreset()
	g, err := p.SyntheticGrid(0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	gapAt := func(pct int) float64 {
		for _, r := range g.Rows {
			if r.MemPct == pct && !math.IsNaN(r.Dynamic) && !math.IsNaN(r.Static) {
				return r.Dynamic - r.Static
			}
		}
		return math.NaN()
	}
	low := math.NaN()
	for _, pct := range []int{43, 50, 57} {
		if v := gapAt(pct); !math.IsNaN(v) {
			low = v
			break
		}
	}
	high := gapAt(100)
	if math.IsNaN(low) || math.IsNaN(high) {
		t.Skip("sweep points infeasible at this scale")
	}
	if low <= high {
		t.Fatalf("gap at low provisioning %.3f not above gap at 100%% %.3f", low, high)
	}
}

// Claim (§4.2): on underprovisioned, overestimated systems the dynamic
// policy reduces the median response time substantially (paper: 69 %).
func TestClaimMedianResponseReduction(t *testing.T) {
	p := accPreset()
	f6, err := experiments.RunFig6(p)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, panel := range f6.Panels {
		if panel.Overest > 0 && panel.Scenario == "underprovisioned" &&
			panel.Static != nil && panel.Dynamic != nil {
			if r := panel.MedianReduction(); r > best {
				best = r
			}
		}
	}
	if best < 0.3 {
		t.Fatalf("median response reduction %.2f, want a substantial cut (paper: 0.69)", best)
	}
}

// Claim (§4.3): the dynamic policy improves throughput per dollar, with the
// largest gains under overestimation (paper: up to 38 %).
func TestClaimThroughputPerDollarGain(t *testing.T) {
	p := accPreset()
	f7, err := experiments.RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if gain := f7.MaxDynamicGain(); gain < 0.10 {
		t.Fatalf("max throughput-per-dollar gain %.2f, want ≥ 0.10 (paper: 0.38)", gain)
	}
}

// Claim (§4.5): the dynamic policy reaches 95 % of the fully provisioned
// throughput with substantially less memory than static once requests are
// overestimated (paper: almost 40 points).
func TestClaimMemorySavingAtThreshold(t *testing.T) {
	p := accPreset()
	f9, err := experiments.RunFig9(p)
	if err != nil {
		t.Fatal(err)
	}
	if saving := f9.MaxMemorySaving(); saving < 20 {
		t.Fatalf("max memory saving %d points, want ≥ 20 (paper: ~40)", saving)
	}
	// And static's requirement trends upward with overestimation. Each
	// overestimation level uses its own generated trace, so the tiny
	// bench scale can jitter the 95 % crossing by one configuration
	// step; larger regressions fail.
	axis := []int{37, 43, 50, 57, 62, 75, 87, 100}
	idx := func(pct int) int {
		for i, v := range axis {
			if v == pct {
				return i
			}
		}
		return len(axis) // unreachable counts as "worse than any number"
	}
	prev := 0
	for _, pt := range f9.Points {
		cur := idx(pt.StaticPct)
		if pt.StaticPct == 0 {
			cur = len(axis)
		}
		if cur < prev-1 {
			t.Fatalf("static requirement fell more than one step (index %d -> %d) with more overestimation",
				prev, cur)
		}
		if cur > prev {
			prev = cur
		}
	}
}

// Claim (§2.2): system-level OOM kills are rare — a small share of jobs
// even on a tight system — so Fail/Restart suffices.
func TestClaimOOMRare(t *testing.T) {
	p := accPreset()
	tr, err := p.SyntheticTrace(0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := experiments.MemConfigByPct(50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunScenario(tr.Jobs, p.SystemNodes, mc, policy.Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible {
		t.Skip("scenario infeasible at bench scale")
	}
	if res.Abandoned > 0 {
		t.Fatalf("%d jobs abandoned; the paper's F/R regime expects none", res.Abandoned)
	}
	if frac := float64(res.OOMKills) / float64(len(res.Records)); frac > 0.15 {
		t.Fatalf("OOM kill rate %.2f of jobs; far above the paper's <1%% regime", frac)
	}
}

// Claim (§1/§3.3): average memory usage sits far below the peak — the gap
// dynamic provisioning reclaims.
func TestClaimAvgUsageWellBelowPeak(t *testing.T) {
	p := accPreset()
	tr, err := p.SyntheticTrace(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var avg, peak float64
	for _, j := range tr.Jobs {
		m, err := j.Usage.MeanOver(j.BaseRuntime)
		if err != nil {
			t.Fatal(err)
		}
		avg += m
		peak += float64(j.PeakUsageMB())
	}
	if ratio := avg / peak; ratio > 0.85 {
		t.Fatalf("avg/peak usage ratio %.2f: no room for reclaiming", ratio)
	}
}
