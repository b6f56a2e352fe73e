package experiments

import (
	"fmt"
	"math"
	"strings"

	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/traces/grizzly"
)

// Infeasible marks a missing bar: the scenario cannot run all jobs.
var Infeasible = math.NaN()

// ThroughputRow is one memory configuration's normalised throughput per
// policy; NaN marks the paper's "missing bars".
type ThroughputRow struct {
	MemPct   int
	Baseline float64
	Static   float64
	Dynamic  float64
}

// ThroughputGrid is one panel of Figures 5 and 8: normalised throughput as
// a function of total system memory.
type ThroughputGrid struct {
	Trace   string  // column label ("large 50%", "grizzly", …)
	Overest float64 // row label
	Rows    []ThroughputRow
}

// BaselineNorm computes the normalisation denominator: the baseline
// policy's throughput on the 100 %-memory system. The paper normalises
// every panel against it; per its methodology the denominator uses the
// accurate (+0 % overestimation) variant of the trace.
func (p Preset) BaselineNorm(jobs0 []*job.Job, nodes int) (float64, error) {
	res, err := p.RunScenario(jobs0, nodes, fullMemory, policy.Baseline)
	if err != nil {
		return 0, err
	}
	if res.Infeasible || res.Throughput() == 0 {
		return 0, fmt.Errorf("experiments: baseline at 100%% memory infeasible (job %d)", res.InfeasibleJob)
	}
	return res.Throughput(), nil
}

// SyntheticGrid runs the panel of the synthetic mix with largeFrac large
// jobs at one overestimation.
func (p Preset) SyntheticGrid(largeFrac, overest float64) (*ThroughputGrid, error) {
	grids, err := newCells(p).panels([]float64{largeFrac}, []float64{overest}, nil)
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

// syntheticLabel labels the panels of the mix with largeFrac large jobs.
func syntheticLabel(largeFrac float64) string {
	return fmt.Sprintf("large %.0f%%", largeFrac*100)
}

// GrizzlyGrid runs the panel of the sampled Grizzly weeks at one
// overestimation and averages the normalised throughputs point-wise, as
// the paper aggregates its seven simulated weeks. Each week is normalised
// against its own +0 % baseline. A cell is infeasible if any week cannot
// run its jobs there.
func (p Preset) GrizzlyGrid(weeks []grizzly.Week, overest float64) (*ThroughputGrid, error) {
	grids, err := newCells(p).panels(nil, []float64{overest}, weeks)
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

// grizzlyLabel labels the panels that simulate the sampled Grizzly weeks.
const grizzlyLabel = "grizzly"

// averageGrids averages matching cells; a cell infeasible in any input
// stays infeasible.
func averageGrids(grids []*ThroughputGrid) *ThroughputGrid {
	if len(grids) == 1 {
		return grids[0]
	}
	out := &ThroughputGrid{Trace: grids[0].Trace, Overest: grids[0].Overest}
	for ri := range grids[0].Rows {
		row := ThroughputRow{MemPct: grids[0].Rows[ri].MemPct}
		var b, s, d float64
		bad := [3]bool{}
		for _, g := range grids {
			r := g.Rows[ri]
			for k, v := range [3]float64{r.Baseline, r.Static, r.Dynamic} {
				if math.IsNaN(v) {
					bad[k] = true
				}
			}
			b += r.Baseline
			s += r.Static
			d += r.Dynamic
		}
		n := float64(len(grids))
		row.Baseline, row.Static, row.Dynamic = b/n, s/n, d/n
		if bad[0] {
			row.Baseline = Infeasible
		}
		if bad[1] {
			row.Static = Infeasible
		}
		if bad[2] {
			row.Dynamic = Infeasible
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the grid as the paper's bar values.
func (g *ThroughputGrid) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%s  overestimation=+%.0f%%\n", g.Trace, g.Overest*100)
	fmt.Fprintf(&b, "%8s %10s %10s %10s\n", "mem%", "baseline", "static", "dynamic")
	for _, r := range g.Rows {
		fmt.Fprintf(&b, "%8d %10s %10s %10s\n",
			r.MemPct, cell(r.Baseline), cell(r.Static), cell(r.Dynamic))
	}
	return b.String()
}

// gridsString renders a figure of panels under its title.
func gridsString(title string, grids []*ThroughputGrid) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	for _, g := range grids {
		b.WriteString(g.String())
		b.WriteString("\n")
	}
	return b.String()
}

func cell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
