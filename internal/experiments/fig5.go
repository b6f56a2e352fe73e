package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/sweep"
)

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

// RunFig5 executes the full sweep. Pass includeGrizzly=false to skip the
// Grizzly column (it needs the larger system and dataset).
//
// The whole figure is submitted to the shared pool as one task DAG up
// front: each column's baseline-norm simulation is a future its two panels
// wait on, trace generations dedupe through the tracegen cache, and panel
// sweeps from different columns interleave freely — nothing waits behind a
// barrier it does not depend on. Results are bit-identical to the serial
// pre-pipeline driver; the golden tests enforce it.
func RunFig5(p Preset, includeGrizzly bool) (*Fig5, error) {
	pool := sweep.SharedPool()
	var panels []*sweep.Future[*ThroughputGrid]
	for _, lf := range Fig5LargeFracs {
		lf := lf
		label := fmt.Sprintf("large %.0f%%", lf*100)
		// Normalisation uses the +0 % trace, shared by the column.
		norm := sweep.Submit(pool, func() (float64, error) {
			trace0, err := p.SyntheticTrace(lf, 0)
			if err != nil {
				return 0, err
			}
			return p.BaselineNorm(trace0.Jobs, p.SystemNodes)
		})
		for _, ov := range Fig5Overests {
			ov := ov
			panels = append(panels, sweep.Submit(pool, func() (*ThroughputGrid, error) {
				tr, err := p.SyntheticTrace(lf, ov) // cache-shared with the norm task at +0 %
				if err != nil {
					return nil, err
				}
				n, err := norm.Get()
				if err != nil {
					return nil, err
				}
				return p.ThroughputSweep(tr.Jobs, p.SystemNodes, n, label, ov)
			}))
		}
	}
	if includeGrizzly {
		for _, ov := range Fig5Overests {
			ov := ov
			panels = append(panels, sweep.Submit(pool, func() (*ThroughputGrid, error) {
				return p.GrizzlyGrid(ov)
			}))
		}
	}
	grids, err := sweep.CollectValues(panels)
	if err != nil {
		return nil, err
	}
	return &Fig5{Panels: grids}, nil
}

// RunFig5Panel executes a single (largeFrac, overest) panel — the unit the
// benchmarks time.
func RunFig5Panel(p Preset, largeFrac, overest float64) (*ThroughputGrid, error) {
	trace0, err := p.SyntheticTrace(largeFrac, 0)
	if err != nil {
		return nil, err
	}
	norm, err := p.BaselineNorm(trace0.Jobs, p.SystemNodes)
	if err != nil {
		return nil, err
	}
	jobs := trace0.Jobs
	if overest != 0 {
		tr, err := p.SyntheticTrace(largeFrac, overest)
		if err != nil {
			return nil, err
		}
		jobs = tr.Jobs
	}
	return p.ThroughputSweep(jobs, p.SystemNodes, norm,
		fmt.Sprintf("large %.0f%%", largeFrac*100), overest)
}

func (f *Fig5) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: normalised throughput vs total system memory\n\n")
	for _, g := range f.Panels {
		b.WriteString(g.String())
		b.WriteString("\n")
	}
	return b.String()
}

// DynamicAdvantage returns the largest (dynamic − static) normalised
// throughput gap across all panels — the paper's headline "up to 13 %".
func (f *Fig5) DynamicAdvantage() float64 {
	best := 0.0
	for _, g := range f.Panels {
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
