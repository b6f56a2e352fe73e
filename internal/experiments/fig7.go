package experiments

import (
	"fmt"
	"math"
	"strings"

	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/sweep"
)

// Fig7 reproduces Figure 7: throughput per dollar as a function of the job
// mix, for four system provisioning levels (100/75/50/25 % of full memory),
// at +0 % and +60 % overestimation, for the static and dynamic policies.
type Fig7 struct {
	Panels []Fig7Panel
}

// Fig7Panel is one (system memory, overestimation) panel.
type Fig7Panel struct {
	SysPct  int
	Overest float64
	Points  []Fig7Point
}

// Fig7Point is one job-mix point: absolute throughput per dollar (NaN =
// infeasible).
type Fig7Point struct {
	LargePct int
	Static   float64
	Dynamic  float64
}

// Fig7SysConfigs maps the paper's system labels to memory configurations.
// 25 % is a system of 32 GB nodes only (half-capacity family, 0 % large).
func Fig7SysConfigs() []struct {
	SysPct int
	MC     MemConfig
} {
	return []struct {
		SysPct int
		MC     MemConfig
	}{
		{100, MemConfig{LabelPct: 100, NormalMB: NormalNodeMB, LargeFrac: 1}},
		{75, MemConfig{LabelPct: 75, NormalMB: NormalNodeMB, LargeFrac: 0.5}},
		{50, MemConfig{LabelPct: 50, NormalMB: NormalNodeMB, LargeFrac: 0}},
		{25, MemConfig{LabelPct: 25, NormalMB: 32 * 1024, LargeFrac: 0}},
	}
}

// Fig7LargeFracs are the job-mix points on the x axis.
var Fig7LargeFracs = []float64{0, 0.25, 0.50, 0.75, 1.00}

// RunFig7 executes the sweep.
func RunFig7(p Preset) (*Fig7, error) { return runFig7(newCells(p)) }

// runFig7 is RunFig7 reading its cells from c. Its 100, 75 and 50 %
// systems are Figure 5's memory configurations.
func runFig7(c *cells) (*Fig7, error) {
	p := c.p
	pols := []policy.Kind{policy.Static, policy.Dynamic}
	var refs []cellRef
	for _, sys := range Fig7SysConfigs() {
		for _, ov := range Fig5Overests {
			for _, lf := range Fig7LargeFracs {
				tr := c.synthetic(lf, ov)
				for _, pol := range pols {
					refs = append(refs, cellRef{tr: tr, mc: sys.MC, pol: pol})
				}
			}
		}
	}
	outs, err := sweep.CollectValues(c.getAll(refs))
	if err != nil {
		return nil, err
	}
	perDollar := func(o outcome, mc MemConfig) float64 {
		if o.infeasible {
			return math.NaN()
		}
		return metrics.ThroughputPerDollar(o.throughput, p.SystemNodes, mc.TotalMemMB(p.SystemNodes))
	}
	out := &Fig7{}
	i := 0
	for _, sys := range Fig7SysConfigs() {
		for _, ov := range Fig5Overests {
			panel := Fig7Panel{SysPct: sys.SysPct, Overest: ov}
			for _, lf := range Fig7LargeFracs {
				panel.Points = append(panel.Points, Fig7Point{
					LargePct: int(lf * 100),
					Static:   perDollar(outs[i], sys.MC),
					Dynamic:  perDollar(outs[i+1], sys.MC),
				})
				i += 2
			}
			out.Panels = append(out.Panels, panel)
		}
	}
	return out, nil
}

func (f *Fig7) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: throughput per dollar (jobs/s/$) vs job mix\n\n")
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "system %d%% memory, overestimation +%.0f%%\n", p.SysPct, p.Overest*100)
		fmt.Fprintf(&b, "  %8s %14s %14s\n", "large%", "static", "dynamic")
		for _, pt := range p.Points {
			fmt.Fprintf(&b, "  %8d %14s %14s\n", pt.LargePct, sciCell(pt.Static), sciCell(pt.Dynamic))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sciCell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3e", v)
}

// MaxDynamicGain returns the largest relative throughput-per-dollar
// advantage of dynamic over static across all panels — the paper's
// headline "up to 38 %".
func (f *Fig7) MaxDynamicGain() float64 {
	best := 0.0
	for _, p := range f.Panels {
		for _, pt := range p.Points {
			if !math.IsNaN(pt.Static) && !math.IsNaN(pt.Dynamic) && pt.Static > 0 {
				if g := pt.Dynamic/pt.Static - 1; g > best {
					best = g
				}
			}
		}
	}
	return best
}
