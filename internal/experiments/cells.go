package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/sweep"
	"dismem/internal/tracegen"
	"dismem/internal/traces/grizzly"
)

// A walk keeps one table of the cells it has simulated. A cell is one trace
// on one memory configuration under one policy, keyed by its content, and
// each figure is a view that reads its cells from the table. A cell the
// table lacks is simulated once, as a single-flight future on the shared
// pool, so readers that ask for it concurrently wait on one simulation. The
// table keeps a scalar summary per cell, plus the response times of the
// cells Figure 6 declares (fig6Cells), and lives as long as its walk.

// trace is one job trace a cell simulates.
type trace struct {
	id    string // tracegen.Key of a synthetic trace; the week and overestimation of a Grizzly one
	nodes int    // the system it runs on
	jobs  func() ([]*job.Job, error)
}

// cellRef is one cell a view reads.
type cellRef struct {
	tr  trace
	mc  MemConfig
	pol policy.Kind
}

// cellKey names a cell by its content.
type cellKey struct {
	trace     string
	nodes     int
	normalMB  int64
	largeFrac float64
	pol       policy.Kind
}

func (r cellRef) key() cellKey {
	return cellKey{r.tr.id, r.tr.nodes, r.mc.NormalMB, r.mc.LargeFrac, r.pol}
}

// outcome is what the table keeps of one simulated cell.
type outcome struct {
	infeasible        bool
	throughput        float64
	alloc, used, busy float64   // allocation, memory and node utilisation
	responses         []float64 // response times, for Figure 6's cells only
}

// cells is one walk's table of simulated cells.
type cells struct {
	p         Preset
	responses map[cellKey]bool // the cells whose response times are kept; read-only

	mu sync.Mutex
	m  map[cellKey]*sweep.Future[outcome] //dmp:guardedby(mu)
}

func newCells(p Preset) *cells {
	c := &cells{p: p, responses: map[cellKey]bool{}, m: map[cellKey]*sweep.Future[outcome]{}}
	refs, _ := c.fig6Cells() // an unknown configuration is runFig6's error to report
	for _, r := range refs {
		c.responses[r.key()] = true
	}
	return c
}

// get returns the future of one cell, submitting its simulation to the
// shared pool if no reader has asked for it yet.
func (c *cells) get(r cellRef) *sweep.Future[outcome] {
	k := r.key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.m[k]; f != nil {
		return f
	}
	keep := c.responses[k]
	f := sweep.Submit(sweep.SharedPool(), func() (outcome, error) {
		jobs, err := r.tr.jobs()
		if err != nil {
			return outcome{}, err
		}
		res, err := c.p.RunScenario(jobs, r.tr.nodes, r.mc, r.pol)
		if err != nil || res.Infeasible {
			return outcome{infeasible: true}, err
		}
		o := outcome{throughput: res.Throughput(), alloc: res.AllocationUtilisation(),
			used: res.MemoryUtilisation(), busy: res.NodeUtilisation()}
		if keep {
			o.responses = res.ResponseTimes()
		}
		return o, nil
	})
	c.m[k] = f
	return f
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
func normCell(tr0 trace) cellRef { return cellRef{tr0, fullMemory, policy.Baseline} }

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
				refs = append(refs, cellRef{tr, mc, pol})
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
					v[k] = Infeasible
					if !o.infeasible {
						v[k] = o.throughput / n
					}
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
