package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/core"
	"dismem/internal/policy"
	"dismem/internal/sweep"
)

// The ablation experiments probe the design choices the paper discusses in
// §2.2 but does not sweep: the memory-update interval ("a critical
// parameter"), Fail/Restart vs Checkpoint/Restart OOM handling, the EASY
// backfill pass, and the lender-selection order on a torus interconnect.
// All run on the underprovisioned, overestimated scenario where the dynamic
// policy matters most (50 % large jobs, +60 %, 50 % memory).

// ablation requests the cell of every arm, a policy and the knobs it sets,
// on the common workload on the system with memPct % memory, and their
// norm, the norm of Figure 5's 50 % panels, before it waits for any of
// them. An arm that sets a knob to its default reads a cell of Figure 5.
func (c *cells) ablation(memPct int, arms []cellRef) ([]outcome, float64, error) {
	mc, err := MemConfigByPct(memPct)
	if err != nil {
		return nil, 0, err
	}
	normF := c.get(normCell(c.synthetic(0.5, 0)))
	tr := c.synthetic(0.5, 0.6)
	for i := range arms {
		arms[i].tr, arms[i].mc = tr, mc
	}
	futs := c.getAll(arms)
	n, err := norm(normF)
	if err != nil {
		return nil, 0, err
	}
	outs, err := sweep.CollectValues(futs)
	return outs, n, err
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
	arms := make([]cellRef, len(UpdateIntervals))
	for i, iv := range UpdateIntervals {
		arms[i] = cellRef{pol: policy.Dynamic, k: knobs{update: iv}}
	}
	outs, n, err := c.ablation(50, arms)
	if err != nil {
		return nil, err
	}
	out := &AblationUpdateInterval{}
	for i, o := range outs {
		out.Rows = append(out.Rows, UpdateIntervalRow{IntervalSec: UpdateIntervals[i], NormThroughput: o.relative(n),
			OOMKills: o.oomKills, Resizes: o.resizes, ReclaimedGB: float64(o.reclaimedMB) / 1024})
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
	labels := []string{"fail/restart", "c/r ideal", "c/r 10min", "c/r 1h"}
	arms := []cellRef{
		{pol: policy.Dynamic, k: knobs{oom: core.FailRestart}},
		{pol: policy.Dynamic, k: knobs{oom: core.CheckpointRestart}},
		{pol: policy.Dynamic, k: knobs{oom: core.CheckpointRestart, checkpoint: 600}},
		{pol: policy.Dynamic, k: knobs{oom: core.CheckpointRestart, checkpoint: 3600}},
	}
	outs, n, err := c.ablation(50, arms)
	if err != nil {
		return nil, err
	}
	out := &AblationOOM{}
	for i, o := range outs {
		out.Rows = append(out.Rows, OOMRow{Label: labels[i], NormThroughput: o.relative(n),
			OOMKills: o.oomKills, Abandoned: o.abandoned, MedianResponse: o.medianResponse})
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

// RunAblationBackfill executes the comparison for static and dynamic.
func RunAblationBackfill(p Preset) (*AblationBackfill, error) {
	return runAblationBackfill(newCells(p))
}

func runAblationBackfill(c *cells) (*AblationBackfill, error) {
	var arms []cellRef
	for _, pol := range []policy.Kind{policy.Static, policy.Dynamic} {
		for _, mode := range []core.BackfillMode{core.EASYBackfill, core.ConservativeBackfill, core.NoBackfill} {
			arms = append(arms, cellRef{pol: pol, k: knobs{backfill: mode}})
		}
	}
	outs, n, err := c.ablation(50, arms)
	if err != nil {
		return nil, err
	}
	out := &AblationBackfill{}
	for i, o := range outs {
		out.Rows = append(out.Rows, BackfillRow{Policy: arms[i].pol.String(), Mode: arms[i].k.backfill.String(),
			NormThroughput: o.relative(n), MedianWait: o.medianWait})
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
	labels := []string{"boost after 1", "boost after 3", "never boost"}
	arms := []cellRef{
		{pol: policy.Dynamic, k: knobs{boost: 1}},
		{pol: policy.Dynamic, k: knobs{boost: 3}},
		{pol: policy.Dynamic, k: knobs{boost: 1 << 30}},
	}
	outs, n, err := c.ablation(43, arms)
	if err != nil {
		return nil, err
	}
	out := &AblationPriority{}
	for i, o := range outs {
		out.Rows = append(out.Rows, PriorityRow{Label: labels[i], NormThroughput: o.relative(n),
			OOMKills: o.oomKills, MaxRestarts: o.maxRestarts, Fairness: o.fairness})
	}
	return out, nil
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

// RunAblationLender executes the comparison.
func RunAblationLender(p Preset) (*AblationLender, error) { return runAblationLender(newCells(p)) }

func runAblationLender(c *cells) (*AblationLender, error) {
	var arms []cellRef
	for _, hp := range []float64{0, 0.25, 1.0} {
		for _, lp := range []core.LenderPolicy{core.MostFree, core.NearestFirst} {
			arms = append(arms, cellRef{pol: policy.Dynamic, k: knobs{lender: lp, torus: true, hopPenalty: hp}})
		}
	}
	outs, n, err := c.ablation(50, arms)
	if err != nil {
		return nil, err
	}
	out := &AblationLender{}
	for i, o := range outs {
		out.Rows = append(out.Rows, LenderRow{Order: arms[i].k.lender.String(), HopPenalty: arms[i].k.hopPenalty,
			NormThroughput: o.relative(n)})
	}
	return out, nil
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
