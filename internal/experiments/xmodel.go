package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"dismem/internal/workload"
)

// ModelComparison checks that the paper's conclusion — dynamic beats static
// on underprovisioned, overestimated systems — is robust to the synthetic
// workload model by running the same sweep under the CIRNE and the
// Lublin–Feitelson generators.
type ModelComparison struct {
	Grids map[string]*ThroughputGrid // model name → 50 % large, +60 % sweep
}

// ModelNames lists the compared generators.
var ModelNames = []string{"cirne", "lublin"}

// RunModelComparison executes the comparison.
func RunModelComparison(p Preset) (*ModelComparison, error) { return runModelComparison(newCells(p)) }

// runModelComparison is RunModelComparison reading its cells from c. The
// CIRNE arm's traces are the synthetic mix's, so its cells are Figure 5's
// 50 %, +60 % panel and norm.
func runModelComparison(c *cells) (*ModelComparison, error) {
	p := c.p
	// Scale the Lublin model to the preset like the CIRNE override does:
	// job sizes and runtimes must fit the (possibly tiny) system.
	lp := workload.NewLublinParams(p.SystemNodes, p.Load, p.Days)
	if p.Cirne != nil {
		lp.MaxNodes = p.Cirne.MaxNodes
		lp.MaxRuntime = p.Cirne.MaxRuntime
	}
	if lp.MaxNodes > p.SystemNodes {
		lp.MaxNodes = p.SystemNodes
	}
	lp.UHi = math.Log2(float64(lp.MaxNodes))
	if lp.UMed > lp.UHi {
		lp.UMed = lp.UHi / 2
	}
	views := make([]func() (*ThroughputGrid, error), len(ModelNames))
	for i, model := range ModelNames {
		views[i] = c.panel(model+" large 50%", 0.6, func(overest float64) trace {
			params := p.syntheticParams(0.5, overest)
			params.Model, params.Lublin = model, &lp
			return c.generated(params)
		})
	}
	grids, err := waitPanels(views)
	if err != nil {
		return nil, err
	}
	out := &ModelComparison{Grids: map[string]*ThroughputGrid{}}
	for i, model := range ModelNames {
		out.Grids[model] = grids[i]
	}
	return out, nil
}

// DynamicWinsEverywhere reports whether dynamic ≥ static − tolerance on
// every feasible point of every model.
func (m *ModelComparison) DynamicWinsEverywhere(tolerance float64) bool {
	for _, g := range m.Grids {
		for _, r := range g.Rows {
			if !isNaN(r.Dynamic) && !isNaN(r.Static) && r.Dynamic < r.Static-tolerance {
				return false
			}
		}
	}
	return true
}

func (m *ModelComparison) String() string {
	var b strings.Builder
	b.WriteString("Cross-model robustness: 50% large jobs, +60% overestimation\n\n")
	for _, name := range ModelNames {
		if g, ok := m.Grids[name]; ok {
			b.WriteString(g.String())
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "dynamic ≥ static on every feasible point: %v\n", m.DynamicWinsEverywhere(0.02))
	return b.String()
}

// WriteCSV reuses the tidy grid format with the model in the trace column.
func (m *ModelComparison) WriteCSV(w io.Writer) error {
	grids := make([]*ThroughputGrid, 0, len(m.Grids))
	for _, name := range ModelNames {
		if g, ok := m.Grids[name]; ok {
			grids = append(grids, g)
		}
	}
	return writeGrids(w, grids)
}
