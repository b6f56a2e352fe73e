package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/sweep"
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

// RunFig8 executes the sweep; the bottom row simulates the given sampled
// Grizzly weeks, and nil weeks skip it. The whole figure is one up-front
// task DAG: the shared baseline norm is a future all six synthetic panels
// wait on, and the Grizzly rows run alongside rather than after them.
func RunFig8(p Preset, weeks []grizzly.Week) (*Fig8, error) {
	const largeFrac = 0.50
	pool := sweep.SharedPool()

	norm := sweep.Submit(pool, func() (float64, error) {
		trace0, err := p.SyntheticTrace(largeFrac, 0)
		if err != nil {
			return 0, err
		}
		return p.BaselineNorm(trace0.Jobs, p.SystemNodes)
	})
	var synth, griz []*sweep.Future[*ThroughputGrid]
	for _, ov := range Fig8Overests {
		ov := ov
		synth = append(synth, sweep.Submit(pool, func() (*ThroughputGrid, error) {
			tr, err := p.SyntheticTrace(largeFrac, ov)
			if err != nil {
				return nil, err
			}
			n, err := norm.Get()
			if err != nil {
				return nil, err
			}
			return p.ThroughputSweep(tr.Jobs, p.SystemNodes, n, "large 50%", ov)
		}))
	}
	if weeks != nil {
		for _, ov := range Fig8Overests {
			ov := ov
			griz = append(griz, sweep.Submit(pool, func() (*ThroughputGrid, error) {
				return p.GrizzlyGrid(weeks, ov)
			}))
		}
	}

	out := &Fig8{}
	var err error
	if out.Synthetic, err = sweep.CollectValues(synth); err != nil {
		return nil, err
	}
	if weeks != nil {
		if out.Grizzly, err = sweep.CollectValues(griz); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *Fig8) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: throughput vs total memory across overestimation factors\n\n")
	for _, g := range f.Synthetic {
		b.WriteString(g.String())
		b.WriteString("\n")
	}
	for _, g := range f.Grizzly {
		b.WriteString(g.String())
		b.WriteString("\n")
	}
	return b.String()
}

// DynamicAdvantageAt returns dynamic − static at a given memory point and
// overestimation in the synthetic row — the paper highlights >38 % at
// (+100 %, 37 % memory).
func (f *Fig8) DynamicAdvantageAt(overest float64, memPct int) (float64, error) {
	for i, ov := range Fig8Overests {
		if ov != overest || i >= len(f.Synthetic) {
			continue
		}
		for _, r := range f.Synthetic[i].Rows {
			if r.MemPct == memPct {
				if isNaN(r.Dynamic) || isNaN(r.Static) {
					return 0, fmt.Errorf("experiments: point (+%g%%, %d%%) infeasible", overest*100, memPct)
				}
				return r.Dynamic - r.Static, nil
			}
		}
	}
	return 0, fmt.Errorf("experiments: point (+%g%%, %d%%) not in Figure 8", overest*100, memPct)
}
