package experiments

import (
	"fmt"
	"math"
	"strings"

	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/sweep"
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
	mc, err := MemConfigByPct(100)
	if err != nil {
		return 0, err
	}
	res, err := p.RunScenario(jobs0, nodes, mc, policy.Baseline)
	if err != nil {
		return 0, err
	}
	if res.Infeasible || res.Throughput() == 0 {
		return 0, fmt.Errorf("experiments: baseline at 100%% memory infeasible (job %d)", res.InfeasibleJob)
	}
	return res.Throughput(), nil
}

// ThroughputSweep runs all three policies over every memory configuration
// and normalises by norm. The 24 scenarios are independent simulations and
// run in parallel across the available cores.
func (p Preset) ThroughputSweep(jobs []*job.Job, nodes int, norm float64, trace string, overest float64) (*ThroughputGrid, error) {
	mcs := MemoryConfigs()
	pols := []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}

	tasks := make([]sweep.Task[float64], 0, len(mcs)*len(pols))
	for _, mc := range mcs {
		for _, pol := range pols {
			mc, pol := mc, pol
			tasks = append(tasks, func() (float64, error) {
				res, err := p.RunScenario(jobs, nodes, mc, pol)
				if err != nil {
					return 0, err
				}
				if res.Infeasible {
					return Infeasible, nil
				}
				return res.Throughput() / norm, nil
			})
		}
	}
	values, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}

	g := &ThroughputGrid{Trace: trace, Overest: overest}
	for i, mc := range mcs {
		base := i * len(pols)
		g.Rows = append(g.Rows, ThroughputRow{
			MemPct:   mc.LabelPct,
			Baseline: values[base],
			Static:   values[base+1],
			Dynamic:  values[base+2],
		})
	}
	return g, nil
}

// GrizzlyGrid runs the sweep over every sampled Grizzly week and averages
// the normalised throughputs point-wise, as the paper aggregates its seven
// simulated weeks. Each week is normalised against its own +0 % baseline.
// A cell is infeasible if any week cannot run its jobs there. The dataset is
// generated and sampled once; both job sets are built from the same weeks.
func (p Preset) GrizzlyGrid(overest float64) (*ThroughputGrid, error) {
	weeks := p.grizzlyWeeks()
	traces0, err := p.buildGrizzly(weeks, 0)
	if err != nil {
		return nil, err
	}
	tracesOv := traces0
	if overest != 0 {
		if tracesOv, err = p.buildGrizzly(weeks, overest); err != nil {
			return nil, err
		}
	}
	// One norm-then-sweep chain per sampled week, all weeks in flight at
	// once on the shared pool.
	pool := sweep.SharedPool()
	futs := make([]*sweep.Future[*ThroughputGrid], len(traces0))
	for i := range traces0 {
		i := i
		futs[i] = sweep.Submit(pool, func() (*ThroughputGrid, error) {
			norm, err := p.BaselineNorm(traces0[i], p.GrizzlyNodes)
			if err != nil {
				return nil, err
			}
			return p.ThroughputSweep(tracesOv[i], p.GrizzlyNodes, norm, "grizzly", overest)
		})
	}
	grids, err := sweep.CollectValues(futs)
	if err != nil {
		return nil, err
	}
	return averageGrids(grids), nil
}

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

func cell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
