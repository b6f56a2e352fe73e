package experiments

import (
	"fmt"
	"strings"
)

// Fig9 reproduces Figure 9: the minimum total system memory needed to keep
// throughput at ≥ 95 % of the fully provisioned baseline, as a function of
// the overestimation factor, for the static and dynamic policies (synthetic
// trace, 50 % large jobs).
type Fig9 struct {
	Threshold float64 // 0.95
	Points    []Fig9Point
}

// Fig9Point is one overestimation level's minimum provisioning; 0 means no
// configuration reached the threshold.
type Fig9Point struct {
	Overest    float64
	StaticPct  int
	DynamicPct int
}

// RunFig9 derives the figure from a Figure 8 synthetic sweep.
func RunFig9(p Preset) (*Fig9, error) { return runFig9(newCells(p)) }

func runFig9(c *cells) (*Fig9, error) {
	f8, err := runFig8(c, nil)
	if err != nil {
		return nil, err
	}
	return Fig9FromFig8(f8, 0.95)
}

// Fig9FromFig8 extracts the minimum-memory points from an existing sweep.
func Fig9FromFig8(f8 *Fig8, threshold float64) (*Fig9, error) {
	if len(f8.Synthetic) != len(Fig8Overests) {
		return nil, fmt.Errorf("experiments: fig8 sweep incomplete (%d panels)", len(f8.Synthetic))
	}
	out := &Fig9{Threshold: threshold}
	for i, ov := range Fig8Overests {
		pt := Fig9Point{Overest: ov}
		for _, r := range f8.Synthetic[i].Rows { // rows are memory-ascending
			if pt.StaticPct == 0 && !isNaN(r.Static) && r.Static >= threshold {
				pt.StaticPct = r.MemPct
			}
			if pt.DynamicPct == 0 && !isNaN(r.Dynamic) && r.Dynamic >= threshold {
				pt.DynamicPct = r.MemPct
			}
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

func (f *Fig9) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: minimum memory for ≥%.0f%% of baseline throughput (50%% large jobs)\n\n", f.Threshold*100)
	fmt.Fprintf(&b, "%12s %12s %12s\n", "overest", "static", "dynamic")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%11.0f%% %12s %12s\n", pt.Overest*100, pctCell(pt.StaticPct), pctCell(pt.DynamicPct))
	}
	return b.String()
}

func pctCell(p int) string {
	if p == 0 {
		return "-"
	}
	return fmt.Sprintf("%d%%", p)
}

// MaxMemorySaving returns the largest static−dynamic provisioning gap in
// percentage points — the paper's "saving almost 40 % more memory".
func (f *Fig9) MaxMemorySaving() int {
	best := 0
	for _, pt := range f.Points {
		if pt.StaticPct > 0 && pt.DynamicPct > 0 {
			if d := pt.StaticPct - pt.DynamicPct; d > best {
				best = d
			}
		}
	}
	return best
}
