package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/textplot"
)

// Terminal renderings of the experiment results, used by dmpexp -plot.

// Plot renders the grid as grouped bars per memory configuration.
func (g *ThroughputGrid) Plot() string {
	groups := make([]string, len(g.Rows))
	base := textplot.Series{Name: "baseline"}
	stat := textplot.Series{Name: "static"}
	dyn := textplot.Series{Name: "dynamic"}
	for i, r := range g.Rows {
		groups[i] = fmt.Sprintf("%d%%", r.MemPct)
		base.Values = append(base.Values, r.Baseline)
		stat.Values = append(stat.Values, r.Static)
		dyn.Values = append(dyn.Values, r.Dynamic)
	}
	title := fmt.Sprintf("normalised throughput — %s, +%.0f%% overestimation", g.Trace, g.Overest*100)
	return textplot.GroupedBars(title, groups, []textplot.Series{base, stat, dyn}, 30)
}

// Plot renders every panel.
func (f *Fig5) Plot() string { return plotGrids(f.Panels) }

// Plot renders every panel.
func (f *Fig8) Plot() string { return plotGrids(f.panels()) }

func plotGrids(grids []*ThroughputGrid) string {
	var sb strings.Builder
	for _, g := range grids {
		sb.WriteString(g.Plot())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Plot renders the week scatter: utilisation vs normalised max memory,
// sampled weeks marked.
func (f *Fig2) Plot() string {
	var pts []textplot.Point
	for _, p := range f.Points {
		y := 0.0
		if f.MaxMemMB > 0 {
			y = float64(p.MemMB) / float64(f.MaxMemMB)
		}
		pts = append(pts, textplot.Point{X: p.Utilization, Y: y, Marked: p.Sampled})
	}
	return textplot.Scatter("Grizzly weeks: utilisation (x) vs normalised max memory (y); * = simulated", pts, 60, 14)
}

// Plot renders minimum provisioning per overestimation, both policies.
func (f *Fig9) Plot() string {
	groups := make([]string, len(f.Points))
	stat := textplot.Series{Name: "static"}
	dyn := textplot.Series{Name: "dynamic"}
	for i, pt := range f.Points {
		groups[i] = fmt.Sprintf("+%.0f%%", pt.Overest*100)
		stat.Values = append(stat.Values, nanIfZero(pt.StaticPct))
		dyn.Values = append(dyn.Values, nanIfZero(pt.DynamicPct))
	}
	return textplot.GroupedBars(
		fmt.Sprintf("minimum memory %% for ≥%.0f%% baseline throughput", f.Threshold*100),
		groups, []textplot.Series{stat, dyn}, 30)
}

func nanIfZero(v int) float64 {
	if v == 0 {
		return Infeasible
	}
	return float64(v)
}

// Plot renders the update-interval sweep as throughput bars.
func (a *AblationUpdateInterval) Plot() string {
	var bars []textplot.Bar
	for _, r := range a.Rows {
		bars = append(bars, textplot.Bar{
			Label: fmt.Sprintf("%.0fs", r.IntervalSec),
			Value: r.NormThroughput,
		})
	}
	return textplot.BarChart("normalised throughput by update interval", bars, 40, "")
}

// Plot renders the OOM-mode comparison.
func (a *AblationOOM) Plot() string {
	var bars []textplot.Bar
	for _, r := range a.Rows {
		bars = append(bars, textplot.Bar{Label: r.Label, Value: r.NormThroughput})
	}
	return textplot.BarChart("normalised throughput by OOM handling", bars, 40, "")
}

// Plot renders the backfill comparison.
func (a *AblationBackfill) Plot() string {
	var bars []textplot.Bar
	for _, r := range a.Rows {
		bars = append(bars, textplot.Bar{Label: r.Policy + "/" + r.Mode, Value: r.NormThroughput})
	}
	return textplot.BarChart("normalised throughput by backfill algorithm", bars, 40, "")
}

// Plot renders the lender-order comparison.
func (a *AblationLender) Plot() string {
	var bars []textplot.Bar
	for _, r := range a.Rows {
		bars = append(bars, textplot.Bar{
			Label: fmt.Sprintf("%s hp=%.2f", r.Order, r.HopPenalty),
			Value: r.NormThroughput,
		})
	}
	return textplot.BarChart("normalised throughput by lender order", bars, 40, "")
}

// Plot renders the Fig. 4 heatmaps with shaded cells.
func (f *Fig4) Plot() string {
	var sb strings.Builder
	for _, part := range []struct {
		name string
		grid [][]float64
	}{{"average memory used", f.Avg}, {"maximum memory used", f.Max}} {
		// Paper orientation: highest memory bucket on top.
		rows := make([][]float64, 0, len(f.MemBins))
		labels := make([]string, 0, len(f.MemBins))
		for i := len(f.MemBins) - 1; i >= 0; i-- {
			row := make([]float64, len(f.SizeBins))
			for k := range f.SizeBins {
				row[k] = part.grid[i][k] * 100
			}
			rows = append(rows, row)
			labels = append(labels, f.MemBins[i])
		}
		sb.WriteString(textplot.Heatmap(part.name+" (% of jobs)", labels, f.SizeBins, rows, "%.1f"))
		sb.WriteByte('\n')
	}
	return sb.String()
}
