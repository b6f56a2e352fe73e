package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"dismem/internal/core"
	"dismem/internal/job"
	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/sweep"
	"dismem/internal/telemetry"
	"dismem/internal/topology"
	"dismem/internal/tracegen"
	"dismem/internal/traces/grizzly"
)

// A table of simulated cells serves one walk or one scenario request. A
// cell is one trace on one memory configuration under one policy with one
// set of simulator knobs, keyed by its content, and each figure, ablation
// and scenario sweep is a view that reads its cells from the table. A cell
// the table lacks is simulated once, as a single-flight future on the
// shared pool, so readers that ask for it concurrently wait on one
// simulation. The table keeps a scalar summary per cell, plus the response
// times of the cells Figure 6 declares (fig6Cells), and lives as long as
// its walk or request.

// trace is one job trace a cell simulates.
type trace struct {
	id    string // tracegen.Key of a synthetic trace; the week and overestimation of a Grizzly one
	nodes int    // the system it runs on
	jobs  func() ([]*job.Job, error)
}

// knobs are the simulator settings a cell sets on top of Preset.ConfigFor:
// the Table 4 knobs that the ablations and scenario specs vary. The zero
// value leaves each at its default.
type knobs struct {
	backfill   core.BackfillMode
	oom        core.OOMMode
	checkpoint float64 // checkpoint interval under checkpoint/restart, s; 0 = ideal
	pressure   core.PressureMode
	domains    int     // pressure-domain count; 0 = derive
	update     float64 // mean memory-update period, s; 0 = the preset's
	enforce    bool    // kill jobs at their time limit
	boost      int     // OOM restarts before a priority boost; 0 = the default
	lender     core.LenderPolicy
	torus      bool    // on the torus topology.Design derives from the node count
	hopPenalty float64 // needs torus
}

// resolved returns k with the preset's and the simulator's defaults spelled
// out, so that knobs that spell a default equal knobs that leave it unset.
func (k knobs) resolved(p Preset) knobs {
	if k.update <= 0 {
		k.update = p.UpdateInterval
	}
	if k.boost <= 0 {
		k.boost = core.DefaultPriorityBoost
	}
	return k
}

// cellConfig is the core.Config of every cell and branch: ConfigFor with
// the resolved knobs on top.
func (p Preset) cellConfig(nodes int, mc MemConfig, pol policy.Kind, k knobs) core.Config {
	k = k.resolved(p)
	cfg := p.ConfigFor(nodes, mc, pol)
	cfg.Backfill = k.backfill
	cfg.OOM = k.oom
	cfg.CheckpointInterval = k.checkpoint
	cfg.Pressure = k.pressure
	cfg.Domains = k.domains
	cfg.UpdateInterval = k.update
	cfg.EnforceTimeLimit = k.enforce
	cfg.PriorityBoost = k.boost
	cfg.LenderPolicy = k.lender
	cfg.HopPenalty = k.hopPenalty
	if k.torus {
		t := topology.Design(nodes)
		cfg.Topology = &t
	}
	return cfg
}

// cellRef is one cell a view reads.
type cellRef struct {
	tr  trace
	mc  MemConfig
	pol policy.Kind
	k   knobs
}

// cellKey names a cell by its content, its knobs resolved.
type cellKey struct {
	trace     string
	nodes     int
	normalMB  int64
	largeFrac float64
	pol       policy.Kind
	k         knobs
}

func (r cellRef) key(p Preset) cellKey {
	return cellKey{r.tr.id, r.tr.nodes, r.mc.NormalMB, r.mc.LargeFrac, r.pol, r.k.resolved(p)}
}

// outcome is what the table keeps of one simulated cell: every scalar a
// view reads, computed once, and all zero when the cell is infeasible.
type outcome struct {
	infeasible        bool
	throughput        float64
	alloc, used, busy float64 // allocation, memory and node utilisation
	oomKills          int
	abandoned         int
	resizes           int   // allocation changes (core.Tally)
	reclaimedMB       int64 // shrinkage those changes applied
	medianResponse    float64
	medianWait        float64
	maxRestarts       int     // of the worst single job
	fairness          float64 // Jain's index over response rates
	meanStretch       float64
	responses         []float64 // response times, for Figure 6's cells only
}

// relative is the cell's throughput over the norm n, or Infeasible.
func (o outcome) relative(n float64) float64 {
	if o.infeasible {
		return Infeasible
	}
	return o.throughput / n
}

// summarise reads a feasible cell's outcome off its result and tally.
func summarise(res *core.Result, tally *core.Tally, keep bool) outcome {
	rts := res.ResponseTimes()
	o := outcome{throughput: res.Throughput(), alloc: res.AllocationUtilisation(),
		used: res.MemoryUtilisation(), busy: res.NodeUtilisation(),
		oomKills: res.OOMKills, abandoned: res.Abandoned,
		resizes: tally.Resizes, reclaimedMB: tally.ReclaimedMB,
		medianResponse: median(rts), fairness: metrics.JainFairness(invert(rts)),
		meanStretch: res.MeanStretch()}
	var waits []float64
	for i := range res.Records {
		if w := res.Records[i].WaitTime(); w >= 0 {
			waits = append(waits, w)
		}
		o.maxRestarts = max(o.maxRestarts, res.Records[i].Restarts)
	}
	o.medianWait = median(waits)
	if keep {
		o.responses = rts
	}
	return o
}

// median is the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	e, err := metrics.NewECDF(xs)
	if err != nil {
		return 0
	}
	return e.Median()
}

// invert maps response times to rates so Jain's index rewards uniformly
// low response times.
func invert(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = 1 / x
		}
	}
	return out
}

// cells is one table of simulated cells.
type cells struct {
	p         Preset
	responses map[cellKey]bool // the cells whose response times are kept; read-only
	// interrupt, when non-nil, is the request's cancellation: each cell
	// polls it before it starts and between events (core.Config.Interrupt).
	interrupt func() error
	// telemetry, when non-nil, builds each cell's recorder
	// (ScenarioSpec.Telemetry); the cell closes it when it finishes.
	telemetry func(memPct int, pol string) *telemetry.Recorder

	mu sync.Mutex
	m  map[cellKey]*sweep.Future[outcome] //dmp:guardedby(mu)
}

// newCells returns a walk's table, which keeps the response times of
// Figure 6's cells.
func newCells(p Preset) *cells {
	c := &cells{p: p, responses: map[cellKey]bool{}, m: map[cellKey]*sweep.Future[outcome]{}}
	refs, _ := c.fig6Cells() // an unknown configuration is runFig6's error to report
	for _, r := range refs {
		c.responses[r.key(p)] = true
	}
	return c
}

// get returns the future of one cell, submitting its simulation to the
// shared pool if no reader has asked for it yet.
func (c *cells) get(r cellRef) *sweep.Future[outcome] {
	k := r.key(c.p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.m[k]; f != nil {
		return f
	}
	keep := c.responses[k]
	f := sweep.Submit(sweep.SharedPool(), func() (outcome, error) { return c.simulate(r, keep) })
	c.m[k] = f
	return f
}

// simulate runs one cell and summarises it.
func (c *cells) simulate(r cellRef, keep bool) (outcome, error) {
	if c.interrupt != nil {
		if err := c.interrupt(); err != nil {
			return outcome{}, err // cancelled before this cell started
		}
	}
	jobs, err := r.tr.jobs()
	if err != nil {
		return outcome{}, err
	}
	cfg := c.p.cellConfig(r.tr.nodes, r.mc, r.pol, r.k)
	cfg.Interrupt = c.interrupt
	var tally core.Tally
	cfg.Observer = &tally
	if c.telemetry != nil {
		cfg.Telemetry = c.telemetry(r.mc.LabelPct, r.pol.String())
	}
	res, err := simulate(cfg, jobs)
	if cerr := cfg.Telemetry.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil || res.Infeasible {
		return outcome{infeasible: true}, err
	}
	return summarise(res, &tally, keep), nil
}

// getAll returns the futures of refs in order.
func (c *cells) getAll(refs []cellRef) []*sweep.Future[outcome] {
	futs := make([]*sweep.Future[outcome], len(refs))
	for i, r := range refs {
		futs[i] = c.get(r)
	}
	return futs
}

// synthetic is the synthetic trace with largeFrac large jobs at overest.
func (c *cells) synthetic(largeFrac, overest float64) trace {
	return c.generated(c.p.syntheticParams(largeFrac, overest))
}

// generated is the trace tracegen generates from params, read from its
// cache.
func (c *cells) generated(params tracegen.Params) trace {
	return trace{tracegen.Key(params), c.p.SystemNodes, func() ([]*job.Job, error) {
		out, err := tracegen.Cached(params)
		if err != nil {
			return nil, err
		}
		return out.Jobs, nil
	}}
}

// grizzly is one sampled week's trace at overest. Its jobs are built on the
// first miss that needs them and shared by the misses of the same value.
func (c *cells) grizzly(w *grizzly.Week, overest float64) trace {
	id := "grizzly week " + strconv.Itoa(w.Index) + " +" + strconv.FormatFloat(overest, 'g', -1, 64)
	return trace{id, c.p.GrizzlyNodes, sync.OnceValues(func() ([]*job.Job, error) { return c.p.GrizzlyJobs(w, overest) })}
}

// normCell is the cell that normalises the panels of the accurate (+0 %)
// trace tr0: the baseline policy on the 100 %-memory system, as the paper
// normalises.
func normCell(tr0 trace) cellRef { return cellRef{tr: tr0, mc: fullMemory, pol: policy.Baseline} }

// norm reads the normalisation denominator off a norm cell.
func norm(f *sweep.Future[outcome]) (float64, error) {
	o, err := f.Get()
	if err == nil && (o.infeasible || o.throughput == 0) {
		err = fmt.Errorf("experiments: baseline at 100%% memory infeasible")
	}
	return o.throughput, err
}

// panelPolicies are a panel's columns.
var panelPolicies = []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}

// panel requests the cells of one panel, every memory configuration under
// every policy on each trace at overest, and returns the function that
// waits for them and assembles the panel. Each of ats builds one trace at
// an overestimation; each trace is normalised against its own +0 %
// variant, and several average point-wise.
func (c *cells) panel(label string, overest float64, ats ...func(overest float64) trace) func() (*ThroughputGrid, error) {
	mcs := MemoryConfigs()
	futs := make([][]*sweep.Future[outcome], len(ats))
	for i, at := range ats {
		tr0 := at(0)
		tr := tr0
		if overest != 0 {
			tr = at(overest)
		}
		refs := []cellRef{normCell(tr0)}
		for _, mc := range mcs {
			for _, pol := range panelPolicies {
				refs = append(refs, cellRef{tr: tr, mc: mc, pol: pol})
			}
		}
		futs[i] = c.getAll(refs)
	}
	return func() (*ThroughputGrid, error) {
		grids := make([]*ThroughputGrid, len(ats))
		for i, fs := range futs {
			n, err := norm(fs[0])
			if err != nil {
				return nil, err
			}
			outs, err := sweep.CollectValues(fs[1:])
			if err != nil {
				return nil, err
			}
			grids[i] = &ThroughputGrid{Trace: label, Overest: overest}
			for j, mc := range mcs {
				var v [3]float64
				for k, o := range outs[3*j : 3*j+3] {
					v[k] = o.relative(n)
				}
				grids[i].Rows = append(grids[i].Rows, ThroughputRow{MemPct: mc.LabelPct, Baseline: v[0], Static: v[1], Dynamic: v[2]})
			}
		}
		return averageGrids(grids), nil
	}
}

// panels returns the panels of each synthetic mix in largeFracs and then,
// unless weeks is nil, of the Grizzly weeks, each at every overestimation
// in overests, in that order. Every cell is requested before any panel
// waits, so the cells of all panels share the pool.
func (c *cells) panels(largeFracs, overests []float64, weeks []grizzly.Week) ([]*ThroughputGrid, error) {
	var views []func() (*ThroughputGrid, error)
	for _, lf := range largeFracs {
		for _, ov := range overests {
			views = append(views, c.panel(syntheticLabel(lf), ov, func(ov float64) trace { return c.synthetic(lf, ov) }))
		}
	}
	if weeks != nil {
		ats := make([]func(float64) trace, len(weeks))
		for i := range weeks {
			ats[i] = func(ov float64) trace { return c.grizzly(&weeks[i], ov) }
		}
		for _, ov := range overests {
			views = append(views, c.panel(grizzlyLabel, ov, ats...))
		}
	}
	return waitPanels(views)
}

// waitPanels assembles the requested panels in order.
func waitPanels(views []func() (*ThroughputGrid, error)) ([]*ThroughputGrid, error) {
	grids := make([]*ThroughputGrid, len(views))
	for i, view := range views {
		g, err := view()
		if err != nil {
			return nil, err
		}
		grids[i] = g
	}
	return grids, nil
}
