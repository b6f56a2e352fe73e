// Package experiments regenerates every table and figure of the paper's
// evaluation (§3–§4). Each experiment has a Run function returning a typed
// result with a text renderer that prints the same rows/series the paper
// reports.
//
// Experiments run at a configurable Preset scale: Full matches the paper
// (1024-node synthetic system, 1490-node Grizzly system, week-long traces);
// Quick is a proportionally scaled-down variant for tests and benchmarks
// that preserves the memory distributions and relative comparisons.
package experiments

import (
	"fmt"
	"math"
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/tracegen"
	"dismem/internal/traces/grizzly"
	"dismem/internal/workload"
)

// Preset fixes the scale of an experiment run.
type Preset struct {
	Name        string
	SystemNodes int // synthetic-trace system size (paper: 1024)
	Days        float64
	Load        float64

	GrizzlyNodes  int // Grizzly system size (paper: 1490)
	GrizzlyWeeks  int // weeks in the synthetic Grizzly dataset
	GrizzlySample int // high-utilisation weeks to simulate (paper: 7)

	GoogleCollections int
	Cirne             *workload.CirneParams // nil = paper defaults

	UpdateInterval float64 // dynamic-policy update period (paper: 300 s)
	Seed           int64
}

// Full is the paper-scale preset.
func Full() Preset {
	return Preset{
		Name:              "full",
		SystemNodes:       1024,
		Days:              7,
		Load:              0.8,
		GrizzlyNodes:      grizzly.SystemNodes,
		GrizzlyWeeks:      26,
		GrizzlySample:     7,
		GoogleCollections: 5000,
		UpdateInterval:    300,
		Seed:              1,
	}
}

// Quick is a scaled-down preset: a 64-node system, one simulated day,
// smaller and shorter jobs. Memory distributions are unchanged, so policy
// comparisons keep their shape.
func Quick() Preset {
	c := workload.NewCirneParams(64, 0.8, 1)
	c.MaxNodes = 16
	c.RuntimeLogMean = math.Log(1800)
	c.RuntimeLogSig = 1.2
	c.MaxRuntime = 86400
	return Preset{
		Name:              "quick",
		SystemNodes:       64,
		Days:              1,
		Load:              0.8,
		GrizzlyNodes:      160,
		GrizzlyWeeks:      8,
		GrizzlySample:     1,
		GoogleCollections: 1500,
		Cirne:             &c,
		UpdateInterval:    300,
		Seed:              1,
	}
}

// Bench is the benchmark-scale preset: smaller still than Quick so a full
// table/figure regeneration fits in a testing.B iteration.
func Bench() Preset {
	c := workload.NewCirneParams(32, 0.8, 0.25)
	c.MaxNodes = 8
	c.RuntimeLogMean = math.Log(900)
	c.RuntimeLogSig = 1.0
	c.MaxRuntime = 6 * 3600
	return Preset{
		Name:              "bench",
		SystemNodes:       32,
		Days:              0.25,
		Load:              0.8,
		GrizzlyNodes:      144,
		GrizzlyWeeks:      3,
		GoogleCollections: 800,
		Cirne:             &c,
		UpdateInterval:    300,
		Seed:              1,
	}
}

// NormalNodeMB is the normal node capacity in the paper's main
// configuration (64 GB; large nodes have 128 GB). The trace's normal/large
// memory-job boundary is defined against it.
const NormalNodeMB = int64(64) * 1024

// LargeNodeMB is the large node capacity (128 GB).
const LargeNodeMB = int64(128) * 1024

// MemConfig is one point on the paper's "total system memory" axis. The
// axis percentage is the system's total memory relative to a system whose
// nodes all have 128 GB. Points below 50 % use 32 GB normal / 64 GB large
// nodes; points at or above use 64 GB / 128 GB (paper §3.4).
type MemConfig struct {
	LabelPct  int   // the paper's x-axis label (37, 43, 50, …, 100)
	NormalMB  int64 // capacity of a normal node in this configuration
	LargeFrac float64
}

// TotalMemMB returns the configuration's total memory for n nodes.
func (mc MemConfig) TotalMemMB(n int) int64 {
	nLarge := int(float64(n)*mc.LargeFrac + 0.5)
	return int64(n-nLarge)*mc.NormalMB + int64(nLarge)*2*mc.NormalMB
}

// MemoryConfigs returns the paper's eight memory provisioning points.
func MemoryConfigs() []MemConfig {
	half := int64(32) * 1024
	return []MemConfig{
		{37, half, 0.50},         // 37.5 %
		{43, half, 0.75},         // 43.75 %
		{50, NormalNodeMB, 0},    // 50 %
		{57, NormalNodeMB, 0.15}, // 57.5 %
		{62, NormalNodeMB, 0.25}, // 62.5 %
		{75, NormalNodeMB, 0.50},
		{87, NormalNodeMB, 0.75}, // 87.5 %
		fullMemory,
	}
}

// fullMemory is the 100 % configuration that every panel normalises
// against.
var fullMemory = MemConfig{100, NormalNodeMB, 1}

// MemConfigByPct returns the configuration with the given axis label.
func MemConfigByPct(pct int) (MemConfig, error) {
	for _, mc := range MemoryConfigs() {
		if mc.LabelPct == pct {
			return mc, nil
		}
	}
	return MemConfig{}, fmt.Errorf("experiments: no memory configuration labelled %d%%", pct)
}

// SyntheticTrace returns the synthetic workload for a (large-job mix,
// overestimation) scenario via the Fig. 3 pipeline. Traces are served from
// the content-addressed tracegen cache: panels, figures, and replication
// seeds that need the same workload share one immutable generation, so
// callers must never mutate the returned Output or its Jobs.
func (p Preset) SyntheticTrace(largeFrac, overest float64) (*tracegen.Output, error) {
	return tracegen.Cached(p.syntheticParams(largeFrac, overest))
}

// SyntheticTraceUncached bypasses the trace cache; the golden tests use it
// to prove cached and fresh generations are bit-identical.
func (p Preset) SyntheticTraceUncached(largeFrac, overest float64) (*tracegen.Output, error) {
	return tracegen.Run(p.syntheticParams(largeFrac, overest))
}

func (p Preset) syntheticParams(largeFrac, overest float64) tracegen.Params {
	return tracegen.Params{
		SystemNodes:       p.SystemNodes,
		Load:              p.Load,
		Days:              p.Days,
		LargeFrac:         largeFrac,
		Overestimation:    overest,
		NormalNodeMB:      NormalNodeMB,
		GoogleCollections: p.GoogleCollections,
		Cirne:             p.Cirne,
		Seed:              p.Seed,
	}
}

// GrizzlyDataset synthesises the LDMS dataset's skeleton at the preset's
// scale: every week and job, without usage traces (grizzly.Generate). Every
// call generates it afresh.
func (p Preset) GrizzlyDataset() *grizzly.Dataset {
	rng := newRand(p.Seed + 1000)
	return generateGrizzly(grizzly.Params{
		Nodes:     p.GrizzlyNodes,
		WeekCount: p.GrizzlyWeeks,
	}, rng)
}

// generateGrizzly is the one generator behind GrizzlyDataset, and
// buildWeek the one builder of a sampled week's usage traces; variables so
// the walk's tests can count their calls.
var (
	generateGrizzly = grizzly.Generate
	buildWeek       = (*grizzly.Week).Build
)

// SampledWeeks returns the weeks of d the Grizzly panels simulate
// (PickWeeks), copied out of d with their usage traces built. d is not
// written, and holding the copies does not keep the rest of it alive. Each
// week is built once, here: building jobs only reads a week, so every
// overestimation and every concurrent panel shares its traces.
func (p Preset) SampledWeeks(d *grizzly.Dataset) []grizzly.Week {
	picked := p.PickWeeks(d)
	weeks := make([]grizzly.Week, len(picked))
	for i, w := range picked {
		weeks[i] = *w
		weeks[i].Jobs = slices.Clone(w.Jobs)
		buildWeek(&weeks[i])
	}
	return weeks
}

// PickWeeks samples the preset's number of representative high-utilisation
// weeks of d to simulate (paper §3.2.1: seven sampled weeks, simulated
// independently), or the busiest week when none reaches the threshold. The
// weeks are d's own, unbuilt: GrizzlyJobs builds the traces of one into the
// jobs it returns. Figure 2 marks these weeks.
func (p Preset) PickWeeks(d *grizzly.Dataset) []*grizzly.Week {
	sampled, err := d.SampleWeeks(newRand(p.Seed+2000), 0.7, max(p.GrizzlySample, 1))
	if err == nil {
		return sampled
	}
	best := &d.Weeks[0]
	for i := range d.Weeks {
		if d.Weeks[i].Utilization > best.Utilization {
			best = &d.Weeks[i]
		}
	}
	return []*grizzly.Week{best}
}

// GrizzlyJobs builds one sampled week's job trace with the given
// overestimation. It uses the week's usage traces and builds any it lacks
// into the jobs only.
func (p Preset) GrizzlyJobs(w *grizzly.Week, overest float64) ([]*job.Job, error) {
	return w.BuildJobs(grizzly.BuildParams{
		Overestimation: overest,
		Seed:           p.Seed + 3000 + int64(w.Index),
	})
}

// RunScenario simulates jobs on nodes under one memory configuration and
// policy.
func (p Preset) RunScenario(jobs []*job.Job, nodes int, mc MemConfig, pol policy.Kind) (*core.Result, error) {
	return p.RunScenarioWith(jobs, nodes, mc, pol, nil)
}

// ConfigFor returns the simulator configuration a scenario run uses; the
// CLI exposes it via dmpsim -dump-conf.
func (p Preset) ConfigFor(nodes int, mc MemConfig, pol policy.Kind) core.Config {
	return core.Config{
		Cluster: cluster.Config{
			Nodes:     nodes,
			Cores:     32,
			NormalMB:  mc.NormalMB,
			LargeFrac: mc.LargeFrac,
		},
		Policy:         pol,
		UpdateInterval: p.UpdateInterval,
		Seed:           p.Seed,
	}
}

// RunScenarioWith is RunScenario with a configuration hook, used by the
// ablation experiments to flip individual simulator switches.
func (p Preset) RunScenarioWith(jobs []*job.Job, nodes int, mc MemConfig, pol policy.Kind, mutate func(*core.Config)) (*core.Result, error) {
	cfg := p.ConfigFor(nodes, mc, pol)
	if mutate != nil {
		mutate(&cfg)
	}
	return simulate(cfg, jobs)
}

// simulate runs every simulation of the evaluation; a variable so the
// walk's tests can count them. The ScenarioSpec path calls run directly.
var simulate = run

// run simulates jobs under cfg to completion.
func run(cfg core.Config, jobs []*job.Job) (*core.Result, error) {
	s, err := core.New(cfg, jobs)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
