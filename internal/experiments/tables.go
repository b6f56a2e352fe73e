package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/metrics"
	"dismem/internal/traces/grizzly"
	"dismem/internal/workload"
)

// Table2 reproduces the paper's Table 2: the share of jobs per max-memory
// bucket (GB/node), for all jobs and split by job size (normal ≤ 32 nodes,
// large > 32), for both the synthetic and the Grizzly trace.
type Table2 struct {
	Buckets   []string
	Synthetic [3][]float64 // all / normal / large shares per bucket
	Grizzly   [3][]float64
}

// RunTable2 samples the synthetic model at the preset's seed and
// histograms its per-node peak memory beside that of the Grizzly dataset d
// (Preset.GrizzlyDataset).
func RunTable2(p Preset, d *grizzly.Dataset) (*Table2, error) {
	out := &Table2{}
	for _, b := range workload.ArcherAll {
		out.Buckets = append(out.Buckets, fmt.Sprintf("[%g,%g)", b.LoGB, b.HiGB))
	}

	// Synthetic: sample the ARCHER distributions by size class, as the
	// pipeline's Step 5 does.
	rng := newRand(p.Seed + 100)
	const n = 20000
	var all, normal, large []int64
	for i := 0; i < n; i++ {
		isLarge := rng.Float64() < 0.33 // share of >32-node jobs in the model
		var v int64
		if isLarge {
			v = workload.ArcherLargeSize.SampleMB(rng)
			large = append(large, v)
		} else {
			v = workload.ArcherNormalSize.SampleMB(rng)
			normal = append(normal, v)
		}
		all = append(all, v)
	}
	out.Synthetic[0] = workload.ArcherAll.Histogram(all)
	out.Synthetic[1] = workload.ArcherAll.Histogram(normal)
	out.Synthetic[2] = workload.ArcherAll.Histogram(large)

	// Grizzly: histogram the synthetic LDMS dataset.
	all, normal, large = nil, nil, nil
	for _, w := range d.Weeks {
		for i := range w.Jobs {
			j := &w.Jobs[i]
			v := j.PeakMB()
			all = append(all, v)
			if j.Nodes > 32 {
				large = append(large, v)
			} else {
				normal = append(normal, v)
			}
		}
	}
	out.Grizzly[0] = workload.GrizzlyAll.Histogram(all)
	out.Grizzly[1] = workload.GrizzlyAll.Histogram(normal)
	out.Grizzly[2] = workload.GrizzlyAll.Histogram(large)
	return out, nil
}

func (t *Table2) String() string {
	var b strings.Builder
	b.WriteString("Table 2: max memory usage per node (share of jobs)\n\n")
	fmt.Fprintf(&b, "%-10s %21s   %21s\n", "", "---- synthetic ----", "----- grizzly -----")
	fmt.Fprintf(&b, "%-10s %6s %6s %6s   %6s %6s %6s\n", "GB/node", "all", "norm", "large", "all", "norm", "large")
	for i, bucket := range t.Buckets {
		fmt.Fprintf(&b, "%-10s %5.1f%% %5.1f%% %5.1f%%   %5.1f%% %5.1f%% %5.1f%%\n",
			bucket,
			t.Synthetic[0][i]*100, t.Synthetic[1][i]*100, t.Synthetic[2][i]*100,
			t.Grizzly[0][i]*100, t.Grizzly[1][i]*100, t.Grizzly[2][i]*100)
	}
	return b.String()
}

// Table3 reproduces the paper's Table 3: five-number summaries of per-node
// memory (MB) and node-hours, for normal- and large-memory jobs of the
// synthetic trace.
type Table3 struct {
	NormalMem, LargeMem metrics.Summary // MB per node
	NormalNH, LargeNH   metrics.Summary // node-hours
	NormalCount         int
	LargeCount          int
}

// RunTable3 generates a 50 % large-memory trace and characterises it.
func RunTable3(p Preset) (*Table3, error) {
	tr, err := p.SyntheticTrace(0.5, 0)
	if err != nil {
		return nil, err
	}
	var nm, lm, nn, ln []float64
	for _, j := range tr.Jobs {
		peak := float64(j.PeakUsageMB())
		nh := j.NodeHours()
		if j.PeakUsageMB() > NormalNodeMB {
			lm = append(lm, peak)
			ln = append(ln, nh)
		} else {
			nm = append(nm, peak)
			nn = append(nn, nh)
		}
	}
	out := &Table3{NormalCount: len(nm), LargeCount: len(lm)}
	if out.NormalMem, err = metrics.Summarize(nm); err != nil {
		return nil, err
	}
	if out.LargeMem, err = metrics.Summarize(lm); err != nil {
		return nil, err
	}
	if out.NormalNH, err = metrics.Summarize(nn); err != nil {
		return nil, err
	}
	if out.LargeNH, err = metrics.Summarize(ln); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *Table3) String() string {
	var b strings.Builder
	b.WriteString("Table 3: normal and large memory job characteristics\n\n")
	fmt.Fprintf(&b, "%-8s %22s %22s\n", "", "normal-memory jobs", "large-memory jobs")
	fmt.Fprintf(&b, "%-8s %11s %10s %11s %10s\n", "metric", "mem (MB)", "node-h", "mem (MB)", "node-h")
	row := func(name string, f func(metrics.Summary) float64) {
		fmt.Fprintf(&b, "%-8s %11.0f %10.1f %11.0f %10.1f\n",
			name, f(t.NormalMem), f(t.NormalNH), f(t.LargeMem), f(t.LargeNH))
	}
	row("min", func(s metrics.Summary) float64 { return s.Min })
	row("q1", func(s metrics.Summary) float64 { return s.Q1 })
	row("median", func(s metrics.Summary) float64 { return s.Median })
	row("q3", func(s metrics.Summary) float64 { return s.Q3 })
	row("max", func(s metrics.Summary) float64 { return s.Max })
	fmt.Fprintf(&b, "\njobs: %d normal, %d large\n", t.NormalCount, t.LargeCount)
	return b.String()
}
