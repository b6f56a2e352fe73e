package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/core"
	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/sweep"
	"dismem/internal/topology"
	"dismem/internal/tracegen"
)

// The ablation experiments probe the design choices the paper discusses in
// §2.2 but does not sweep: the memory-update interval ("a critical
// parameter"), Fail/Restart vs Checkpoint/Restart OOM handling, the EASY
// backfill pass, and the lender-selection order on a torus interconnect.
// All run on the underprovisioned, overestimated scenario where the dynamic
// policy matters most (50 % large jobs, +60 %, 50 % memory).

// ablationScenario fixes the common workload on the system with memPct %
// memory. Its norm is the norm of Figure 5's 50 % panels.
func (c *cells) ablationScenario(memPct int) (jobsAndSystem, error) {
	tr, err := c.p.SyntheticTrace(0.5, 0.6)
	if err != nil {
		return jobsAndSystem{}, err
	}
	n, err := norm(c.get(normCell(c.synthetic(0.5, 0))))
	if err != nil {
		return jobsAndSystem{}, err
	}
	mc, err := MemConfigByPct(memPct)
	if err != nil {
		return jobsAndSystem{}, err
	}
	return jobsAndSystem{trace: tr, mc: mc, norm: n}, nil
}

type jobsAndSystem struct {
	trace *tracegen.Output
	mc    MemConfig
	norm  float64
}

// AblationUpdateInterval sweeps the Monitor's update period.
type AblationUpdateInterval struct {
	Rows []UpdateIntervalRow
}

// UpdateIntervalRow is one interval's outcome.
type UpdateIntervalRow struct {
	IntervalSec    float64
	NormThroughput float64
	OOMKills       int
	Resizes        int
	ReclaimedGB    float64
}

// UpdateIntervals swept by the ablation; 300 s is the paper's setting.
var UpdateIntervals = []float64{60, 300, 900, 1800}

// RunAblationUpdateInterval executes the sweep.
func RunAblationUpdateInterval(p Preset) (*AblationUpdateInterval, error) {
	return runAblationUpdateInterval(newCells(p))
}

func runAblationUpdateInterval(c *cells) (*AblationUpdateInterval, error) {
	p := c.p
	sc, err := c.ablationScenario(50)
	if err != nil {
		return nil, err
	}
	out := &AblationUpdateInterval{}
	for _, iv := range UpdateIntervals {
		var tally core.Tally
		res, err := p.RunScenarioWith(sc.trace.Jobs, p.SystemNodes, sc.mc, policy.Dynamic,
			func(cfg *core.Config) {
				cfg.UpdateInterval = iv
				cfg.Observer = &tally
			})
		if err != nil {
			return nil, err
		}
		row := UpdateIntervalRow{IntervalSec: iv, NormThroughput: Infeasible}
		if !res.Infeasible {
			row.NormThroughput = res.Throughput() / sc.norm
			row.OOMKills = res.OOMKills
			row.Resizes = tally.Resizes
			row.ReclaimedGB = float64(tally.ReclaimedMB) / 1024
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func (a *AblationUpdateInterval) String() string {
	var b strings.Builder
	b.WriteString("Ablation: memory-update interval (dynamic, 50% mem, +60% overest)\n\n")
	fmt.Fprintf(&b, "%10s %12s %8s %9s %12s\n", "interval", "throughput", "OOM", "resizes", "reclaimedGB")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%9.0fs %12s %8d %9d %12.0f\n",
			r.IntervalSec, cell(r.NormThroughput), r.OOMKills, r.Resizes, r.ReclaimedGB)
	}
	return b.String()
}

// AblationOOM compares Fail/Restart against Checkpoint/Restart with
// several checkpoint intervals.
type AblationOOM struct {
	Rows []OOMRow
}

// OOMRow is one OOM-handling configuration's outcome.
type OOMRow struct {
	Label          string
	NormThroughput float64
	OOMKills       int
	Abandoned      int
	MedianResponse float64
}

// RunAblationOOM executes the comparison.
func RunAblationOOM(p Preset) (*AblationOOM, error) { return runAblationOOM(newCells(p)) }

func runAblationOOM(c *cells) (*AblationOOM, error) {
	p := c.p
	sc, err := c.ablationScenario(50)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		label  string
		mutate func(*core.Config)
	}{
		{"fail/restart", func(cfg *core.Config) { cfg.OOM = core.FailRestart }},
		{"c/r ideal", func(cfg *core.Config) { cfg.OOM = core.CheckpointRestart }},
		{"c/r 10min", func(cfg *core.Config) {
			cfg.OOM = core.CheckpointRestart
			cfg.CheckpointInterval = 600
		}},
		{"c/r 1h", func(cfg *core.Config) {
			cfg.OOM = core.CheckpointRestart
			cfg.CheckpointInterval = 3600
		}},
	}
	out := &AblationOOM{}
	for _, k := range configs {
		res, err := p.RunScenarioWith(sc.trace.Jobs, p.SystemNodes, sc.mc, policy.Dynamic, k.mutate)
		if err != nil {
			return nil, err
		}
		row := OOMRow{Label: k.label, NormThroughput: Infeasible}
		if !res.Infeasible {
			row.NormThroughput = res.Throughput() / sc.norm
			row.OOMKills = res.OOMKills
			row.Abandoned = res.Abandoned
			if rts := res.ResponseTimes(); len(rts) > 0 {
				e, err := metrics.NewECDF(rts)
				if err != nil {
					return nil, err
				}
				row.MedianResponse = e.Median()
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func (a *AblationOOM) String() string {
	var b strings.Builder
	b.WriteString("Ablation: out-of-memory handling (dynamic, 50% mem, +60% overest)\n\n")
	fmt.Fprintf(&b, "%-14s %12s %6s %10s %14s\n", "mode", "throughput", "OOM", "abandoned", "median-resp(s)")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-14s %12s %6d %10d %14.0f\n",
			r.Label, cell(r.NormThroughput), r.OOMKills, r.Abandoned, r.MedianResponse)
	}
	return b.String()
}

// AblationBackfill compares the backfill algorithms: EASY (the paper's),
// conservative (per-job reservations), and strict FIFO.
type AblationBackfill struct {
	Rows []BackfillRow
}

// BackfillRow is one (policy, algorithm) cell.
type BackfillRow struct {
	Policy         string
	Mode           string
	NormThroughput float64
	MedianWait     float64
}

// Backfill reports whether the row used any backfill (kept for the CSV
// consumers that predate the three-way comparison).
func (r BackfillRow) Backfill() bool { return r.Mode != "none" }

// RunAblationBackfill executes the comparison for static and dynamic.
func RunAblationBackfill(p Preset) (*AblationBackfill, error) {
	return runAblationBackfill(newCells(p))
}

func runAblationBackfill(c *cells) (*AblationBackfill, error) {
	p := c.p
	sc, err := c.ablationScenario(50)
	if err != nil {
		return nil, err
	}
	out := &AblationBackfill{}
	for _, pol := range []policy.Kind{policy.Static, policy.Dynamic} {
		for _, mode := range []core.BackfillMode{core.EASYBackfill, core.ConservativeBackfill, core.NoBackfill} {
			mode := mode
			res, err := p.RunScenarioWith(sc.trace.Jobs, p.SystemNodes, sc.mc, pol,
				func(cfg *core.Config) { cfg.Backfill = mode })
			if err != nil {
				return nil, err
			}
			row := BackfillRow{Policy: pol.String(), Mode: mode.String(), NormThroughput: Infeasible}
			if !res.Infeasible {
				row.NormThroughput = res.Throughput() / sc.norm
				var waits []float64
				for i := range res.Records {
					if w := res.Records[i].WaitTime(); w >= 0 {
						waits = append(waits, w)
					}
				}
				if len(waits) > 0 {
					e, err := metrics.NewECDF(waits)
					if err != nil {
						return nil, err
					}
					row.MedianWait = e.Median()
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func (a *AblationBackfill) String() string {
	var b strings.Builder
	b.WriteString("Ablation: backfill algorithm (50% mem, +60% overest)\n\n")
	fmt.Fprintf(&b, "%-9s %-13s %12s %14s\n", "policy", "backfill", "throughput", "median-wait(s)")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-9s %-13s %12s %14.0f\n", r.Policy, r.Mode, cell(r.NormThroughput), r.MedianWait)
	}
	return b.String()
}

// AblationPriority probes the paper's fairness mitigation: raising a job's
// priority after repeated OOM failures (§2.2). It compares boosting after
// the first failure, the default third failure, and never.
type AblationPriority struct {
	Rows []PriorityRow
}

// PriorityRow is one boost setting's outcome.
type PriorityRow struct {
	Label          string
	NormThroughput float64
	OOMKills       int
	MaxRestarts    int     // worst single job
	Fairness       float64 // Jain's index over response times (1 = equal)
}

// RunAblationPriority executes the comparison on a tighter system (43 %
// memory) where OOM restarts actually occur.
func RunAblationPriority(p Preset) (*AblationPriority, error) {
	return runAblationPriority(newCells(p))
}

func runAblationPriority(c *cells) (*AblationPriority, error) {
	p := c.p
	sc, err := c.ablationScenario(43)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		label string
		boost int
	}{
		{"boost after 1", 1},
		{"boost after 3", 3},
		{"never boost", 1 << 30},
	}
	out := &AblationPriority{}
	for _, k := range configs {
		res, err := p.RunScenarioWith(sc.trace.Jobs, p.SystemNodes, sc.mc, policy.Dynamic,
			func(cfg *core.Config) { cfg.PriorityBoost = k.boost })
		if err != nil {
			return nil, err
		}
		row := PriorityRow{Label: k.label, NormThroughput: Infeasible}
		if !res.Infeasible {
			row.NormThroughput = res.Throughput() / sc.norm
			row.OOMKills = res.OOMKills
			for i := range res.Records {
				if r := res.Records[i].Restarts; r > row.MaxRestarts {
					row.MaxRestarts = r
				}
			}
			row.Fairness = metrics.JainFairness(invert(res.ResponseTimes()))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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

func (a *AblationPriority) String() string {
	var b strings.Builder
	b.WriteString("Ablation: priority boost after OOM failures (dynamic, 43% mem, +60% overest)\n\n")
	fmt.Fprintf(&b, "%-15s %12s %6s %13s %10s\n", "setting", "throughput", "OOM", "max-restarts", "fairness")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-15s %12s %6d %13d %10.3f\n",
			r.Label, cell(r.NormThroughput), r.OOMKills, r.MaxRestarts, r.Fairness)
	}
	return b.String()
}

// AblationLender compares lender-selection orders under hop penalties on a
// torus.
type AblationLender struct {
	Rows []LenderRow
}

// LenderRow is one (order, hop penalty) cell.
type LenderRow struct {
	Order          string
	HopPenalty     float64
	NormThroughput float64
}

// RunAblationLender executes the comparison. The six cells run as one
// sweep on the shared pool, collected in table order.
func RunAblationLender(p Preset) (*AblationLender, error) { return runAblationLender(newCells(p)) }

func runAblationLender(c *cells) (*AblationLender, error) {
	p := c.p
	sc, err := c.ablationScenario(50)
	if err != nil {
		return nil, err
	}
	torus := topology.Design(p.SystemNodes)
	var tasks []sweep.Task[LenderRow]
	for _, hp := range []float64{0, 0.25, 1.0} {
		for _, lp := range []core.LenderPolicy{core.MostFree, core.NearestFirst} {
			tasks = append(tasks, func() (LenderRow, error) {
				res, err := p.RunScenarioWith(sc.trace.Jobs, p.SystemNodes, sc.mc, policy.Dynamic,
					func(cfg *core.Config) {
						cfg.Topology = &torus
						cfg.LenderPolicy = lp
						cfg.HopPenalty = hp
					})
				if err != nil {
					return LenderRow{}, err
				}
				row := LenderRow{Order: lp.String(), HopPenalty: hp, NormThroughput: Infeasible}
				if !res.Infeasible {
					row.NormThroughput = res.Throughput() / sc.norm
				}
				return row, nil
			})
		}
	}
	rows, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}
	return &AblationLender{Rows: rows}, nil
}

func (a *AblationLender) String() string {
	var b strings.Builder
	b.WriteString("Ablation: lender selection on a torus (dynamic, 50% mem, +60% overest)\n\n")
	fmt.Fprintf(&b, "%-14s %11s %12s\n", "order", "hop-penalty", "throughput")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-14s %11.2f %12s\n", r.Order, r.HopPenalty, cell(r.NormThroughput))
	}
	return b.String()
}
