package experiments

import (
	"slices"

	"dismem/internal/traces/grizzly"
)

// Fig8 reproduces Figure 8: the effect of memory overestimation on
// throughput. Each panel sweeps total system memory for one overestimation
// factor; the top row uses the synthetic trace with 50 % large jobs, the
// bottom row the Grizzly trace.
type Fig8 struct {
	Synthetic []*ThroughputGrid // one grid per overestimation factor
	Grizzly   []*ThroughputGrid
}

// Fig8Overests are the paper's overestimation panels.
var Fig8Overests = []float64{0, 0.25, 0.50, 0.60, 0.75, 1.00}

// RunFig8 builds the figure's panels: the 50 % synthetic mix and, over the
// given sampled Grizzly weeks, the Grizzly trace, at each overestimation.
// Nil weeks skip the Grizzly row. Its +0 % and +60 % panels are Figure 5's.
func RunFig8(p Preset, weeks []grizzly.Week) (*Fig8, error) { return runFig8(newCells(p), weeks) }

func runFig8(c *cells, weeks []grizzly.Week) (*Fig8, error) {
	grids, err := c.panels([]float64{0.50}, Fig8Overests, weeks)
	if err != nil {
		return nil, err
	}
	n := len(Fig8Overests)
	out := &Fig8{Synthetic: grids[:n:n]}
	if weeks != nil {
		out.Grizzly = grids[n:]
	}
	return out, nil
}

func (f *Fig8) String() string {
	return gridsString("Figure 8: throughput vs total memory across overestimation factors", f.panels())
}

// panels returns the synthetic row, then the Grizzly row.
func (f *Fig8) panels() []*ThroughputGrid {
	return append(slices.Clip(f.Synthetic), f.Grizzly...)
}
