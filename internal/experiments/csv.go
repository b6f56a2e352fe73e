package experiments

import (
	"encoding/csv"
	"io"
	"math"
	"strconv"

	"dismem/internal/metrics"
)

// CSV exporters: every experiment result can emit a flat, plot-ready CSV
// with one observation per row (tidy format), so the paper's figures can be
// regenerated with any plotting tool. Infeasible cells are written as
// empty fields.

func writeAll(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f2s(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', 8, 64)
}

// WriteCSV emits trace,overest,mem_pct,policy,norm_throughput rows.
func (g *ThroughputGrid) WriteCSV(w io.Writer) error {
	return writeGrids(w, []*ThroughputGrid{g})
}

// WriteCSV emits all panels of Figure 5 in tidy form.
func (f *Fig5) WriteCSV(w io.Writer) error {
	return writeGrids(w, f.Panels)
}

// WriteCSV emits all panels of Figure 8 in tidy form.
func (f *Fig8) WriteCSV(w io.Writer) error {
	return writeGrids(w, f.panels())
}

func writeGrids(w io.Writer, grids []*ThroughputGrid) error {
	var rows [][]string
	for _, g := range grids {
		for _, r := range g.Rows {
			for _, pr := range []struct {
				name string
				v    float64
			}{{"baseline", r.Baseline}, {"static", r.Static}, {"dynamic", r.Dynamic}} {
				rows = append(rows, []string{
					g.Trace, f2s(g.Overest), strconv.Itoa(r.MemPct), pr.name, f2s(pr.v),
				})
			}
		}
	}
	return writeAll(w, []string{"trace", "overest", "mem_pct", "policy", "norm_throughput"}, rows)
}

// WriteCSV emits scenario,overest,policy,cum_prob,response_s rows with up
// to 100 ECDF points per distribution.
func (f *Fig6) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, p := range f.Panels {
		for _, pr := range []struct {
			name string
			e    *metrics.ECDF
		}{{"static", p.Static}, {"dynamic", p.Dynamic}} {
			if pr.e == nil {
				continue
			}
			for _, pt := range pr.e.Points(100) {
				rows = append(rows, []string{
					p.Scenario, f2s(p.Overest), pr.name, f2s(pt.P), f2s(pt.X),
				})
			}
		}
	}
	return writeAll(w, []string{"scenario", "overest", "policy", "cum_prob", "response_s"}, rows)
}

// WriteCSV emits sys_pct,overest,large_pct,policy,throughput_per_dollar.
func (f *Fig7) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, p := range f.Panels {
		for _, pt := range p.Points {
			rows = append(rows,
				[]string{strconv.Itoa(p.SysPct), f2s(p.Overest), strconv.Itoa(pt.LargePct), "static", f2s(pt.Static)},
				[]string{strconv.Itoa(p.SysPct), f2s(p.Overest), strconv.Itoa(pt.LargePct), "dynamic", f2s(pt.Dynamic)})
		}
	}
	return writeAll(w, []string{"sys_pct", "overest", "large_pct", "policy", "throughput_per_dollar"}, rows)
}

// WriteCSV emits overest,policy,min_mem_pct (0 = unreachable).
func (f *Fig9) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, pt := range f.Points {
		rows = append(rows,
			[]string{f2s(pt.Overest), "static", strconv.Itoa(pt.StaticPct)},
			[]string{f2s(pt.Overest), "dynamic", strconv.Itoa(pt.DynamicPct)})
	}
	return writeAll(w, []string{"overest", "policy", "min_mem_pct"}, rows)
}

// WriteCSV emits week,utilization,max_node_hours,max_mem_mb,sampled.
func (f *Fig2) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, pt := range f.Points {
		rows = append(rows, []string{
			strconv.Itoa(pt.Week), f2s(pt.Utilization), f2s(pt.NodeHours),
			strconv.FormatInt(pt.MemMB, 10), strconv.FormatBool(pt.Sampled),
		})
	}
	return writeAll(w, []string{"week", "utilization", "max_node_hours", "max_mem_mb", "sampled"}, rows)
}

// WriteCSV emits metric,size_bin,mem_bin,share.
func (f *Fig4) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, part := range []struct {
		name string
		grid [][]float64
	}{{"avg", f.Avg}, {"max", f.Max}} {
		for mi, memBin := range f.MemBins {
			for si, sizeBin := range f.SizeBins {
				rows = append(rows, []string{part.name, sizeBin, memBin, f2s(part.grid[mi][si])})
			}
		}
	}
	return writeAll(w, []string{"metric", "size_bin", "mem_bin", "share"}, rows)
}

// WriteCSV emits trace,size_class,bucket,share.
func (t *Table2) WriteCSV(w io.Writer) error {
	var rows [][]string
	classes := []string{"all", "normal", "large"}
	for bi, bucket := range t.Buckets {
		for ci, class := range classes {
			rows = append(rows,
				[]string{"synthetic", class, bucket, f2s(t.Synthetic[ci][bi])},
				[]string{"grizzly", class, bucket, f2s(t.Grizzly[ci][bi])})
		}
	}
	return writeAll(w, []string{"trace", "size_class", "bucket", "share"}, rows)
}

// WriteCSV emits interval_s,norm_throughput,oom_kills,resizes,reclaimed_gb.
func (a *AblationUpdateInterval) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			f2s(r.IntervalSec), f2s(r.NormThroughput),
			strconv.Itoa(r.OOMKills), strconv.Itoa(r.Resizes), f2s(r.ReclaimedGB),
		})
	}
	return writeAll(w, []string{"interval_s", "norm_throughput", "oom_kills", "resizes", "reclaimed_gb"}, rows)
}

// WriteCSV emits mode,norm_throughput,oom_kills,abandoned,median_response_s.
func (a *AblationOOM) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Label, f2s(r.NormThroughput),
			strconv.Itoa(r.OOMKills), strconv.Itoa(r.Abandoned), f2s(r.MedianResponse),
		})
	}
	return writeAll(w, []string{"mode", "norm_throughput", "oom_kills", "abandoned", "median_response_s"}, rows)
}

// WriteCSV emits policy,backfill,norm_throughput,median_wait_s.
func (a *AblationBackfill) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Policy, r.Mode, f2s(r.NormThroughput), f2s(r.MedianWait),
		})
	}
	return writeAll(w, []string{"policy", "backfill", "norm_throughput", "median_wait_s"}, rows)
}

// WriteCSV emits order,hop_penalty,norm_throughput.
func (a *AblationLender) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{r.Order, f2s(r.HopPenalty), f2s(r.NormThroughput)})
	}
	return writeAll(w, []string{"order", "hop_penalty", "norm_throughput"}, rows)
}

// WriteCSV emits class,metric,min,q1,median,q3,max.
func (t *Table3) WriteCSV(w io.Writer) error {
	row := func(class, metric string, s metrics.Summary) []string {
		return []string{class, metric, f2s(s.Min), f2s(s.Q1), f2s(s.Median), f2s(s.Q3), f2s(s.Max)}
	}
	rows := [][]string{
		row("normal", "memory_mb", t.NormalMem),
		row("normal", "node_hours", t.NormalNH),
		row("large", "memory_mb", t.LargeMem),
		row("large", "node_hours", t.LargeNH),
	}
	return writeAll(w, []string{"class", "metric", "min", "q1", "median", "q3", "max"}, rows)
}

// WriteCSV emits setting,norm_throughput,oom_kills,max_restarts,fairness.
func (a *AblationPriority) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Label, f2s(r.NormThroughput),
			strconv.Itoa(r.OOMKills), strconv.Itoa(r.MaxRestarts), f2s(r.Fairness),
		})
	}
	return writeAll(w, []string{"setting", "norm_throughput", "oom_kills", "max_restarts", "fairness"}, rows)
}
