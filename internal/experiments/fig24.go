package experiments

import (
	"fmt"
	"strings"

	"dismem/internal/traces/grizzly"
)

// Fig2 reproduces Figure 2: every one-week period of the Grizzly dataset as
// a point (CPU utilisation, max job node-hours, max job memory), with the
// simulated (sampled) weeks flagged. The paper samples weeks with ≥ 70 %
// utilisation.
type Fig2 struct {
	Points []Fig2Point
	// Normalisation constants for the y axes (the paper normalises both
	// metrics to [0,1]).
	MaxNodeHours float64
	MaxMemMB     int64
}

// Fig2Point is one week.
type Fig2Point struct {
	Week        int
	Utilization float64
	NodeHours   float64 // max job node-hours in the week
	MemMB       int64   // max per-node job memory in the week
	Sampled     bool
}

// RunFig2 plots the weeks of the Grizzly dataset d
// (Preset.GrizzlyDataset) and marks the weeks the Grizzly panels of
// Figures 5 and 8 simulate (Preset.SampledWeeks).
func RunFig2(p Preset, d *grizzly.Dataset) (*Fig2, error) {
	chosen := map[int]bool{}
	for _, w := range p.sampleWeeks(d) {
		chosen[w.Index] = true
	}
	out := &Fig2{}
	for i := range d.Weeks {
		w := &d.Weeks[i]
		pt := Fig2Point{
			Week:        w.Index,
			Utilization: w.Utilization,
			NodeHours:   w.MaxJobNodeHours(),
			MemMB:       w.MaxJobMemMB(),
			Sampled:     chosen[w.Index],
		}
		if pt.NodeHours > out.MaxNodeHours {
			out.MaxNodeHours = pt.NodeHours
		}
		if pt.MemMB > out.MaxMemMB {
			out.MaxMemMB = pt.MemMB
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

func (f *Fig2) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: Grizzly one-week periods (sampled weeks marked *)\n\n")
	fmt.Fprintf(&b, "%6s %8s %14s %14s\n", "week", "util%", "norm-node-h", "norm-max-mem")
	for _, pt := range f.Points {
		mark := " "
		if pt.Sampled {
			mark = "*"
		}
		nh, mm := 0.0, 0.0
		if f.MaxNodeHours > 0 {
			nh = pt.NodeHours / f.MaxNodeHours
		}
		if f.MaxMemMB > 0 {
			mm = float64(pt.MemMB) / float64(f.MaxMemMB)
		}
		fmt.Fprintf(&b, "%5d%s %8.1f %14.3f %14.3f\n", pt.Week, mark, pt.Utilization*100, nh, mm)
	}
	return b.String()
}

// Fig4 reproduces Figure 4: heatmaps of the share of jobs per (job size
// bin, per-node memory bucket) cell, for average and maximum memory usage,
// on the synthetic trace.
type Fig4 struct {
	SizeBins []string
	MemBins  []string
	Avg      [][]float64 // [mem bin][size bin] share of jobs
	Max      [][]float64
	Jobs     int
}

// Fig4SizeEdges are the paper's size bins: [1,1] [2,2] (2,4] (4,8] (8,16]
// (16,32] (32,64] (64,128].
var fig4SizeEdges = []int{1, 2, 4, 8, 16, 32, 64, 128}

// fig4MemEdgesGB are the memory buckets in GB/node.
var fig4MemEdgesGB = []float64{12, 24, 48, 96, 128}

// RunFig4 generates the 50 % large-job synthetic trace and bins it.
func RunFig4(p Preset) (*Fig4, error) {
	tr, err := p.SyntheticTrace(0.5, 0)
	if err != nil {
		return nil, err
	}
	out := &Fig4{Jobs: len(tr.Jobs)}
	out.SizeBins = []string{"[1,1]", "[2,2]", "(2,4]", "(4,8]", "(8,16]", "(16,32]", "(32,64]", "(64,128]"}
	out.MemBins = []string{"[0,12)", "[12,24)", "[24,48)", "[48,96)", "[96,128)"}
	out.Avg = newGrid(len(out.MemBins), len(out.SizeBins))
	out.Max = newGrid(len(out.MemBins), len(out.SizeBins))

	for _, j := range tr.Jobs {
		s := sizeBin(j.Nodes)
		maxMB := j.PeakUsageMB()
		avg, err := j.Usage.MeanOver(j.BaseRuntime)
		if err != nil {
			return nil, err
		}
		out.Max[memBin(float64(maxMB)/1024)][s]++
		out.Avg[memBin(avg/1024)][s]++
	}
	n := float64(len(tr.Jobs))
	for _, grid := range [][][]float64{out.Avg, out.Max} {
		for i := range grid {
			for k := range grid[i] {
				grid[i][k] /= n
			}
		}
	}
	return out, nil
}

func newGrid(rows, cols int) [][]float64 {
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, cols)
	}
	return g
}

func sizeBin(nodes int) int {
	for i, hi := range fig4SizeEdges {
		if nodes <= hi {
			return i
		}
	}
	return len(fig4SizeEdges) - 1
}

func memBin(gb float64) int {
	for i, hi := range fig4MemEdgesGB {
		if gb < hi {
			return i
		}
	}
	return len(fig4MemEdgesGB) - 1
}

func (f *Fig4) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: share of jobs per (size, memory) cell\n")
	for _, part := range []struct {
		name string
		grid [][]float64
	}{{"average memory used (GB/node)", f.Avg}, {"maximum memory used (GB/node)", f.Max}} {
		fmt.Fprintf(&b, "\n%s\n%-9s", part.name, "")
		for _, s := range f.SizeBins {
			fmt.Fprintf(&b, " %8s", s)
		}
		b.WriteString("\n")
		// Print top bucket first, like the paper's heatmap.
		for i := len(f.MemBins) - 1; i >= 0; i-- {
			fmt.Fprintf(&b, "%-9s", f.MemBins[i])
			for k := range f.SizeBins {
				fmt.Fprintf(&b, " %7.2f%%", part.grid[i][k]*100)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
