package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dismem/internal/policy"
)

// tiny returns a preset even smaller than Quick for unit tests.
func tiny() Preset {
	p := Quick()
	p.Name = "tiny"
	p.SystemNodes = 32
	p.Days = 0.25
	p.GrizzlyNodes = 144
	p.GrizzlyWeeks = 3
	p.GoogleCollections = 800
	c := *p.Cirne
	c.MaxNodes = 8
	c.RuntimeLogMean = math.Log(900)
	c.MaxRuntime = 6 * 3600
	p.Cirne = &c
	return p
}

// multiWeek is tiny with a Grizzly dataset large enough that the preset
// samples three weeks (tiny's three-week dataset has one eligible week).
func multiWeek() Preset {
	p := tiny()
	p.GrizzlyWeeks = 8
	p.GrizzlySample = 3
	return p
}

func TestMemoryConfigsMatchPaperAxis(t *testing.T) {
	mcs := MemoryConfigs()
	wantPct := []int{37, 43, 50, 57, 62, 75, 87, 100}
	if len(mcs) != len(wantPct) {
		t.Fatalf("configs = %d, want %d", len(mcs), len(wantPct))
	}
	fullMem := float64(MemConfig{LabelPct: 100, NormalMB: NormalNodeMB, LargeFrac: 1}.TotalMemMB(1000))
	for i, mc := range mcs {
		if mc.LabelPct != wantPct[i] {
			t.Fatalf("config %d label %d, want %d", i, mc.LabelPct, wantPct[i])
		}
		frac := float64(mc.TotalMemMB(1000)) / fullMem
		if math.Abs(frac-float64(mc.LabelPct)/100) > 0.01 {
			t.Fatalf("config %d%%: actual fraction %.3f", mc.LabelPct, frac)
		}
	}
	if _, err := MemConfigByPct(99); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestRunScenarioBasic(t *testing.T) {
	p := tiny()
	tr, err := p.SyntheticTrace(0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) == 0 {
		t.Fatal("empty trace")
	}
	mc, err := MemConfigByPct(100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunScenario(tr.Jobs, p.SystemNodes, mc, policy.Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible {
		t.Fatalf("100%% system infeasible (job %d)", res.InfeasibleJob)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestThroughputSweepShape(t *testing.T) {
	p := tiny()
	tr0, err := p.SyntheticTrace(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := p.BaselineNorm(tr0.Jobs, p.SystemNodes)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.ThroughputSweep(tr0.Jobs, p.SystemNodes, norm, "large 50%", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(g.Rows))
	}
	last := g.Rows[len(g.Rows)-1]
	// At 100 % memory the baseline normalises to exactly 1.
	if math.Abs(last.Baseline-1) > 1e-9 {
		t.Fatalf("baseline at 100%% = %v, want 1", last.Baseline)
	}
	// Disaggregated policies never lose to the baseline at 100 %
	// (everything fits locally, so they are equivalent within noise).
	if !isNaN(last.Static) && last.Static < 0.9 {
		t.Fatalf("static at 100%% = %v, implausibly low", last.Static)
	}
	// Dynamic at least matches static on every feasible point (small
	// tolerance for scheduling noise).
	for _, r := range g.Rows {
		if !isNaN(r.Dynamic) && !isNaN(r.Static) && r.Dynamic < r.Static-0.1 {
			t.Fatalf("mem %d%%: dynamic %.3f below static %.3f", r.MemPct, r.Dynamic, r.Static)
		}
	}
	// Baseline must have missing bars below 50 % when 64 GB-request
	// jobs exist (32 GB normal nodes cannot hold them; the paper's
	// missing bars) — only check that the printed table renders.
	if !strings.Contains(g.String(), "mem%") {
		t.Fatal("table rendering broken")
	}
}

func TestFig5PanelHeadline(t *testing.T) {
	p := tiny()
	g, err := p.SyntheticGrid(0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// With +60 % overestimation large-memory requests exceed 128 GB, so
	// the baseline column must be entirely infeasible (paper: baseline
	// shown only in the top row).
	for _, r := range g.Rows {
		if !isNaN(r.Baseline) {
			t.Fatalf("baseline feasible at %d%% despite +60%% overestimation", r.MemPct)
		}
	}
	// Dynamic must beat static somewhere on underprovisioned systems.
	adv := 0.0
	for _, r := range g.Rows {
		if !isNaN(r.Dynamic) && !isNaN(r.Static) && r.Dynamic-r.Static > adv {
			adv = r.Dynamic - r.Static
		}
	}
	if adv <= 0 {
		t.Fatalf("dynamic never beats static in the +60%% panel:\n%s", g)
	}
}

func TestFig6Runs(t *testing.T) {
	p := tiny()
	f, err := RunFig6(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(f.Panels))
	}
	sawBoth := false
	for _, panel := range f.Panels {
		if panel.Static != nil && panel.Dynamic != nil {
			sawBoth = true
		}
	}
	if !sawBoth {
		t.Fatal("no panel produced both ECDFs")
	}
	if !strings.Contains(f.String(), "median reduction") {
		t.Fatal("rendering broken")
	}
}

func TestFig7Runs(t *testing.T) {
	p := tiny()
	f, err := RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 8 { // 4 systems × 2 overestimations
		t.Fatalf("panels = %d, want 8", len(f.Panels))
	}
	for _, panel := range f.Panels {
		if len(panel.Points) != len(Fig7LargeFracs) {
			t.Fatalf("panel %d%%/%g: %d points", panel.SysPct, panel.Overest, len(panel.Points))
		}
	}
	// Feasible cost-benefit values must be positive and finite.
	for _, panel := range f.Panels {
		for _, pt := range panel.Points {
			for _, v := range []float64{pt.Static, pt.Dynamic} {
				if !math.IsNaN(v) && (v <= 0 || math.IsInf(v, 0)) {
					t.Fatalf("bad throughput/$ %v", v)
				}
			}
		}
	}
}

func TestFig8AndFig9(t *testing.T) {
	p := tiny()
	f8, err := RunFig8(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Synthetic) != len(Fig8Overests) {
		t.Fatalf("panels = %d, want %d", len(f8.Synthetic), len(Fig8Overests))
	}
	f9, err := Fig9FromFig8(f8, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Points) != len(Fig8Overests) {
		t.Fatalf("fig9 points = %d", len(f9.Points))
	}
	// Where overestimation is substantial — the regime the paper's
	// claim covers — dynamic never needs more memory than static. At
	// +0 % the two policies are near-equal and the tiny test scale can
	// flip the 95 % threshold crossing by one configuration step, so
	// low-overestimation points are exempt.
	for _, pt := range f9.Points {
		if pt.Overest < 0.5 {
			continue
		}
		if pt.StaticPct > 0 && pt.DynamicPct > 0 && pt.DynamicPct > pt.StaticPct {
			t.Fatalf("overest +%.0f%%: dynamic needs %d%% > static %d%%",
				pt.Overest*100, pt.DynamicPct, pt.StaticPct)
		}
	}
	if !strings.Contains(f9.String(), "overest") {
		t.Fatal("fig9 rendering broken")
	}
}

func TestTable2Shares(t *testing.T) {
	p := tiny()
	tb, err := RunTable2(p, p.GrizzlyDataset())
	if err != nil {
		t.Fatal(err)
	}
	for name, group := range map[string][3][]float64{"synthetic": tb.Synthetic, "grizzly": tb.Grizzly} {
		for k, shares := range group {
			var sum float64
			for _, s := range shares {
				sum += s
			}
			if len(shares) != 5 {
				t.Fatalf("%s[%d]: %d buckets", name, k, len(shares))
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s[%d]: shares sum to %g", name, k, sum)
			}
		}
	}
	if !strings.Contains(tb.String(), "GB/node") {
		t.Fatal("rendering broken")
	}
}

func TestTable3Characterisation(t *testing.T) {
	p := tiny()
	tb, err := RunTable3(p)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NormalCount == 0 || tb.LargeCount == 0 {
		t.Fatalf("counts: %d normal, %d large", tb.NormalCount, tb.LargeCount)
	}
	// Large-memory jobs live strictly above the normal-node boundary.
	if tb.LargeMem.Min <= float64(NormalNodeMB) {
		t.Fatalf("large-memory min %g not above %d", tb.LargeMem.Min, NormalNodeMB)
	}
	if tb.NormalMem.Max > float64(NormalNodeMB) {
		t.Fatalf("normal-memory max %g above boundary", tb.NormalMem.Max)
	}
	if tb.NormalMem.Median >= tb.LargeMem.Median {
		t.Fatal("normal median not below large median")
	}
}

// TestFig2Sampling checks that Figure 2 marks exactly the weeks the
// Grizzly panels simulate, at a preset that samples 3 of 8 weeks.
func TestFig2Sampling(t *testing.T) {
	p := multiWeek()
	d := p.GrizzlyDataset()
	f, err := RunFig2(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != p.GrizzlyWeeks {
		t.Fatalf("points = %d, want %d", len(f.Points), p.GrizzlyWeeks)
	}
	var marked, simulated []int
	for _, pt := range f.Points {
		if pt.Sampled {
			marked = append(marked, pt.Week)
			if pt.Utilization < 0.7 {
				t.Fatalf("sampled week %d utilisation %g < 0.7", pt.Week, pt.Utilization)
			}
		}
	}
	for _, w := range p.SampledWeeks(d) {
		simulated = append(simulated, w.Index)
	}
	if len(marked) == 0 || !slices.Equal(marked, simulated) {
		t.Fatalf("Figure 2 marks weeks %v, the panels simulate %v", marked, simulated)
	}
}

func TestFig4Heatmap(t *testing.T) {
	p := tiny()
	f, err := RunFig4(p)
	if err != nil {
		t.Fatal(err)
	}
	sumCells := func(grid [][]float64) float64 {
		var s float64
		for _, row := range grid {
			for _, v := range row {
				s += v
			}
		}
		return s
	}
	if s := sumCells(f.Avg); math.Abs(s-1) > 1e-9 {
		t.Fatalf("avg heatmap sums to %g", s)
	}
	if s := sumCells(f.Max); math.Abs(s-1) > 1e-9 {
		t.Fatalf("max heatmap sums to %g", s)
	}
	// Average usage is lower than maximum usage: the topmost memory row
	// must hold no more mass for avg than for max.
	top := len(f.MemBins) - 1
	var avgTop, maxTop float64
	for k := range f.SizeBins {
		avgTop += f.Avg[top][k]
		maxTop += f.Max[top][k]
	}
	if avgTop > maxTop+1e-9 {
		t.Fatalf("avg mass in top bucket %g exceeds max mass %g", avgTop, maxTop)
	}
}

func TestGrizzlyGridMultiWeek(t *testing.T) {
	p := multiWeek()
	weeks := p.SampledWeeks(p.GrizzlyDataset())
	if len(weeks) < 2 {
		t.Fatalf("sampled %d weeks, want several", len(weeks))
	}
	g, err := p.GrizzlyGrid(weeks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 8 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	// At 100% memory the per-week normalised baselines average to ~1.
	last := g.Rows[len(g.Rows)-1]
	if isNaN(last.Baseline) || math.Abs(last.Baseline-1) > 1e-9 {
		t.Fatalf("baseline at 100%% = %v, want 1", last.Baseline)
	}
}

func TestAverageGridsInfeasiblePropagates(t *testing.T) {
	a := &ThroughputGrid{Trace: "g", Rows: []ThroughputRow{{MemPct: 50, Baseline: 0.8, Static: 0.9, Dynamic: 1.0}}}
	b := &ThroughputGrid{Trace: "g", Rows: []ThroughputRow{{MemPct: 50, Baseline: Infeasible, Static: 0.7, Dynamic: 0.8}}}
	avg := averageGrids([]*ThroughputGrid{a, b})
	r := avg.Rows[0]
	if !isNaN(r.Baseline) {
		t.Fatalf("baseline = %v, want infeasible", r.Baseline)
	}
	if math.Abs(r.Static-0.8) > 1e-12 || math.Abs(r.Dynamic-0.9) > 1e-12 {
		t.Fatalf("averages wrong: %+v", r)
	}
	// Single grid passes through unchanged.
	if averageGrids([]*ThroughputGrid{a}) != a {
		t.Fatal("single-grid average must be identity")
	}
}

func TestGrizzlyTracesAlignedAcrossOverestimation(t *testing.T) {
	p := multiWeek()
	weeks := p.SampledWeeks(p.GrizzlyDataset())
	for w := range weeks {
		a, err := p.GrizzlyJobs(&weeks[w], 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.GrizzlyJobs(&weeks[w], 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("week %d: job counts differ", w)
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("week %d: job order differs at %d", w, i)
			}
			if a[i].PeakUsageMB() != b[i].PeakUsageMB() {
				t.Fatalf("week %d job %d: peaks differ across overestimation", w, i)
			}
			if b[i].RequestMB < a[i].RequestMB {
				t.Fatalf("week %d job %d: +60%% request below +0%%", w, i)
			}
		}
	}
}

func TestPresetsWellFormed(t *testing.T) {
	for _, p := range []Preset{Quick(), Full(), Bench()} {
		if p.SystemNodes <= 0 || p.Days <= 0 || p.Load <= 0 || p.Load > 1 {
			t.Fatalf("%s: bad system fields %+v", p.Name, p)
		}
		if p.GrizzlyNodes <= 0 || p.GrizzlyWeeks <= 0 || p.GoogleCollections <= 0 {
			t.Fatalf("%s: bad trace fields %+v", p.Name, p)
		}
		if p.UpdateInterval <= 0 {
			t.Fatalf("%s: bad update interval", p.Name)
		}
		if p.Cirne != nil && p.Cirne.MaxNodes > p.SystemNodes {
			t.Fatalf("%s: jobs can outsize the system", p.Name)
		}
	}
	full := Full()
	if full.SystemNodes != 1024 || full.GrizzlyNodes != 1490 || full.GrizzlySample != 7 {
		t.Fatalf("full preset deviates from the paper: %+v", full)
	}
}
