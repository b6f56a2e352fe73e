package experiments

import "dismem/internal/traces/grizzly"

// Fig5 reproduces Figure 5: normalised throughput vs. total system memory
// for large-job mixes 0–100 % plus the Grizzly trace, at +0 % and +60 %
// overestimation, under all three policies.
type Fig5 struct {
	Panels []*ThroughputGrid // columns × rows, column-major
}

// Fig5LargeFracs are the paper's job-mix columns.
var Fig5LargeFracs = []float64{0, 0.15, 0.25, 0.50, 0.75, 1.00}

// Fig5Overests are the paper's overestimation rows.
var Fig5Overests = []float64{0, 0.60}

// RunFig5 builds the figure's panels: each job-mix column and, over the
// given sampled weeks (Preset.SampledWeeks), the Grizzly column, at each
// overestimation row. Nil weeks skip the Grizzly column. Each panel
// normalises against its own +0 % baseline; the golden tests hold the
// results to the serial reference in golden_pipeline_test.go.
func RunFig5(p Preset, weeks []grizzly.Week) (*Fig5, error) { return runFig5(newCells(p), weeks) }

func runFig5(c *cells, weeks []grizzly.Week) (*Fig5, error) {
	grids, err := c.panels(Fig5LargeFracs, Fig5Overests, weeks)
	if err != nil {
		return nil, err
	}
	return &Fig5{Panels: grids}, nil
}

func (f *Fig5) String() string {
	return gridsString("Figure 5: normalised throughput vs total system memory", f.Panels)
}

// DynamicAdvantage returns the largest (dynamic − static) normalised
// throughput gap across the synthetic panels — the paper's headline "up to
// 13 %". The Grizzly panels are left out, so the figure with and without
// them reads the same headline.
func (f *Fig5) DynamicAdvantage() float64 {
	best := 0.0
	for _, g := range f.Panels {
		if g.Trace == grizzlyLabel {
			continue
		}
		for _, r := range g.Rows {
			if !isNaN(r.Dynamic) && !isNaN(r.Static) {
				if d := r.Dynamic - r.Static; d > best {
					best = d
				}
			}
		}
	}
	return best
}

func isNaN(v float64) bool { return v != v }
