package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dismem/internal/policy"
	"dismem/internal/sweep"
)

// Utilization quantifies the paper's motivation (§1: 25–76 % of memory
// typically idle) on the simulated system: how much memory each policy
// keeps allocated versus how much the jobs actually touch, across
// provisioning levels.
type Utilization struct {
	Overest float64
	Rows    []UtilizationRow
}

// UtilizationRow is one (memory, policy) cell; utilisations are fractions
// of total capacity over the makespan, NaN = infeasible.
type UtilizationRow struct {
	MemPct    int
	Policy    string
	Allocated float64 // memory held by jobs
	Used      float64 // memory actually touched
	Nodes     float64 // busy-node share
}

// Stranded returns allocated-but-untouched memory (the reclaimable waste).
func (r UtilizationRow) Stranded() float64 { return r.Allocated - r.Used }

// RunUtilization measures the 50 % large-job, +60 % overestimation
// workload under all three policies.
func RunUtilization(p Preset) (*Utilization, error) {
	const overest = 0.6
	tr, err := p.SyntheticTrace(0.5, overest)
	if err != nil {
		return nil, err
	}
	mcs := MemoryConfigs()
	pols := []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}
	tasks := make([]sweep.Task[UtilizationRow], 0, len(mcs)*len(pols))
	for _, mc := range mcs {
		for _, pol := range pols {
			mc, pol := mc, pol
			tasks = append(tasks, func() (UtilizationRow, error) {
				row := UtilizationRow{MemPct: mc.LabelPct, Policy: pol.String(),
					Allocated: Infeasible, Used: Infeasible, Nodes: Infeasible}
				res, err := p.RunScenario(tr.Jobs, p.SystemNodes, mc, pol)
				if err != nil {
					return row, err
				}
				if !res.Infeasible {
					row.Allocated = res.AllocationUtilisation()
					row.Used = res.MemoryUtilisation()
					row.Nodes = res.NodeUtilisation()
				}
				return row, nil
			})
		}
	}
	rows, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}
	return &Utilization{Overest: overest, Rows: rows}, nil
}

func (u *Utilization) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory utilisation by policy (50%% large jobs, +%.0f%% overestimation)\n\n", u.Overest*100)
	fmt.Fprintf(&b, "%6s %-9s %10s %10s %10s %10s\n", "mem%", "policy", "allocated", "used", "stranded", "busy-nodes")
	for _, r := range u.Rows {
		if isNaN(r.Allocated) {
			fmt.Fprintf(&b, "%6d %-9s %10s %10s %10s %10s\n", r.MemPct, r.Policy, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%6d %-9s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
			r.MemPct, r.Policy, r.Allocated*100, r.Used*100, r.Stranded()*100, r.Nodes*100)
	}
	return b.String()
}

// WriteCSV emits mem_pct,policy,allocated,used,stranded,busy_nodes.
func (u *Utilization) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range u.Rows {
		stranded := Infeasible
		if !isNaN(r.Allocated) {
			stranded = r.Stranded()
		}
		rows = append(rows, []string{
			strconv.Itoa(r.MemPct), r.Policy,
			f2s(r.Allocated), f2s(r.Used), f2s(stranded), f2s(r.Nodes),
		})
	}
	return writeAll(w, []string{"mem_pct", "policy", "allocated", "used", "stranded", "busy_nodes"}, rows)
}
