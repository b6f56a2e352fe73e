package experiments

import (
	"fmt"
	"math"
	"strings"

	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/sweep"
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

// panelSweep runs ThroughputSweep on the jobs that build returns at
// overest, normalised against the baseline on the accurate (+0 %) jobs —
// the chain behind every panel.
func (p Preset) panelSweep(build func(overest float64) ([]*job.Job, error), nodes int, trace string, overest float64) (*ThroughputGrid, error) {
	jobs0, err := build(0)
	if err != nil {
		return nil, err
	}
	norm, err := p.BaselineNorm(jobs0, nodes)
	if err != nil {
		return nil, err
	}
	jobs := jobs0
	if overest != 0 {
		if jobs, err = build(overest); err != nil {
			return nil, err
		}
	}
	return p.ThroughputSweep(jobs, nodes, norm, trace, overest)
}

// SyntheticGrid runs the panel of the synthetic mix with largeFrac large
// jobs at one overestimation.
func (p Preset) SyntheticGrid(largeFrac, overest float64) (*ThroughputGrid, error) {
	return p.panelSweep(func(ov float64) ([]*job.Job, error) {
		tr, err := p.SyntheticTrace(largeFrac, ov)
		if err != nil {
			return nil, err
		}
		return tr.Jobs, nil
	}, p.SystemNodes, syntheticTrace(largeFrac), overest)
}

// syntheticTrace labels the panels of the mix with largeFrac large jobs.
func syntheticTrace(largeFrac float64) string {
	return fmt.Sprintf("large %.0f%%", largeFrac*100)
}

// GrizzlyGrid runs the sweep over the sampled Grizzly weeks and averages
// the normalised throughputs point-wise, as the paper aggregates its seven
// simulated weeks. Each week is normalised against its own +0 % baseline.
// A cell is infeasible if any week cannot run its jobs there. Both job sets
// are built from the same weeks.
func (p Preset) GrizzlyGrid(weeks []grizzly.Week, overest float64) (*ThroughputGrid, error) {
	// One panel chain per sampled week, all weeks in flight at once on the
	// shared pool.
	tasks := make([]sweep.Task[*ThroughputGrid], len(weeks))
	for i := range weeks {
		w := &weeks[i]
		tasks[i] = func() (*ThroughputGrid, error) {
			return p.panelSweep(func(ov float64) ([]*job.Job, error) { return p.GrizzlyJobs(w, ov) },
				p.GrizzlyNodes, grizzlyTrace, overest)
		}
	}
	grids, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}
	return averageGrids(grids), nil
}

// grizzlyTrace labels the panels that simulate the sampled Grizzly weeks.
const grizzlyTrace = "grizzly"

// panelKey names a panel as its grid labels it: one trace at one
// overestimation. Every figure that shows a panel labels it alike.
type panelKey struct {
	trace   string
	overest float64
}

// panel is one panel a figure shows: the synthetic mix with largeFrac large
// jobs, or the sampled Grizzly weeks when its trace is grizzlyTrace.
type panel struct {
	panelKey
	largeFrac float64
}

// buildPanel builds one panel; a variable so the walk's tests can count its
// calls.
var buildPanel = func(p Preset, pn panel, weeks []grizzly.Week) (*ThroughputGrid, error) {
	if pn.trace == grizzlyTrace {
		return p.GrizzlyGrid(weeks, pn.overest)
	}
	return p.SyntheticGrid(pn.largeFrac, pn.overest)
}

// panels returns the panels of each synthetic mix in largeFracs and then,
// unless weeks is nil, of the Grizzly weeks, each at every overestimation
// in overests, in that order. They are built concurrently on the shared
// pool. A panel already in held is taken from there instead of built, and
// a non-nil held gains the panels built once they all are.
func (p Preset) panels(largeFracs, overests []float64, weeks []grizzly.Week, held map[panelKey]*ThroughputGrid) ([]*ThroughputGrid, error) {
	var list []panel
	for _, lf := range largeFracs {
		for _, ov := range overests {
			list = append(list, panel{panelKey{syntheticTrace(lf), ov}, lf})
		}
	}
	if weeks != nil {
		for _, ov := range overests {
			list = append(list, panel{panelKey: panelKey{grizzlyTrace, ov}})
		}
	}
	tasks := make([]sweep.Task[*ThroughputGrid], len(list))
	for i, pn := range list {
		if g := held[pn.panelKey]; g != nil {
			tasks[i] = func() (*ThroughputGrid, error) { return g, nil }
			continue
		}
		tasks[i] = func() (*ThroughputGrid, error) { return buildPanel(p, pn, weeks) }
	}
	grids, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}
	if held != nil {
		for i, pn := range list {
			held[pn.panelKey] = grids[i]
		}
	}
	return grids, nil
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
