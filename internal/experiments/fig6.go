package experiments

import (
	"fmt"
	"math"
	"strings"

	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/sweep"
)

// Fig6 reproduces Figure 6: the empirical CDF of job response times for
// over-provisioned, matching, and under-provisioned systems at +0 % and
// +60 % overestimation, comparing the static and dynamic policies.
//
// With a 50 % large-memory job mix, the demanded share of large nodes is
// ~50 %: 100 % memory over-provisions, 75 % matches, and 50 % (no large
// nodes) under-provisions — the same construction as the paper's three
// scenarios.
type Fig6 struct {
	Panels []Fig6Panel
}

// Fig6Panel is one (provisioning, overestimation) cell with both policies'
// response-time distributions.
type Fig6Panel struct {
	Scenario string // "overprovisioned" | "match" | "underprovisioned"
	MemPct   int
	Overest  float64
	Static   *metrics.ECDF
	Dynamic  *metrics.ECDF
}

// MedianReduction returns 1 − median(dynamic)/median(static): the paper's
// "median response time reduced by 69 %" metric.
func (p *Fig6Panel) MedianReduction() float64 {
	if p.Static == nil || p.Dynamic == nil || p.Static.Median() == 0 {
		return 0
	}
	return 1 - p.Dynamic.Median()/p.Static.Median()
}

// MaxUnderprovisionedReduction returns the largest median response-time
// reduction over the overestimated underprovisioned panels where both
// policies ran — the paper's headline "69 %" — or NaN when none did.
func (f *Fig6) MaxUnderprovisionedReduction() float64 {
	best := math.NaN()
	for i := range f.Panels {
		p := &f.Panels[i]
		if p.Overest > 0 && p.Scenario == "underprovisioned" && p.Static != nil && p.Dynamic != nil {
			if r := p.MedianReduction(); math.IsNaN(best) || r > best {
				best = r
			}
		}
	}
	return best
}

// Fig6Scenarios maps provisioning labels to memory configurations.
var Fig6Scenarios = []struct {
	Name   string
	MemPct int
}{
	{"overprovisioned", 100},
	{"match", 75},
	{"underprovisioned", 50},
}

// RunFig6 executes the six panels.
func RunFig6(p Preset) (*Fig6, error) { return runFig6(newCells(p)) }

// fig6Cells are the cells Figure 6 reads, in panel order: the static and
// then the dynamic cell of each scenario at each overestimation, all on the
// 50 % mix. They are Figure 5's cells; the table keeps their response
// times.
func (c *cells) fig6Cells() ([]cellRef, error) {
	var refs []cellRef
	for _, ov := range Fig5Overests {
		tr := c.synthetic(0.50, ov)
		for _, sc := range Fig6Scenarios {
			mc, err := MemConfigByPct(sc.MemPct)
			if err != nil {
				return nil, err
			}
			refs = append(refs, cellRef{tr: tr, mc: mc, pol: policy.Static}, cellRef{tr: tr, mc: mc, pol: policy.Dynamic})
		}
	}
	return refs, nil
}

func runFig6(c *cells) (*Fig6, error) {
	refs, err := c.fig6Cells()
	if err != nil {
		return nil, err
	}
	outs, err := sweep.CollectValues(c.getAll(refs))
	if err != nil {
		return nil, err
	}
	ecdf := func(o outcome) *metrics.ECDF {
		if len(o.responses) == 0 {
			return nil
		}
		e, _ := metrics.NewECDF(o.responses) // never empty here
		return e
	}
	out := &Fig6{}
	i := 0
	for _, ov := range Fig5Overests {
		for _, sc := range Fig6Scenarios {
			out.Panels = append(out.Panels, Fig6Panel{Scenario: sc.Name, MemPct: sc.MemPct, Overest: ov,
				Static: ecdf(outs[i]), Dynamic: ecdf(outs[i+1])})
			i += 2
		}
	}
	return out, nil
}

func (f *Fig6) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: response-time ECDF (seconds) by provisioning scenario\n\n")
	qs := []float64{0.25, 0.5, 0.75, 0.9}
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "%s, mem %d%%, overestimation +%.0f%%\n", p.Scenario, p.MemPct, p.Overest*100)
		fmt.Fprintf(&b, "  %-8s", "policy")
		for _, q := range qs {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("p%02.0f", q*100))
		}
		b.WriteString("\n")
		for _, row := range []struct {
			name string
			e    *metrics.ECDF
		}{{"static", p.Static}, {"dynamic", p.Dynamic}} {
			fmt.Fprintf(&b, "  %-8s", row.name)
			for _, q := range qs {
				if row.e == nil {
					fmt.Fprintf(&b, " %9s", "-")
				} else {
					fmt.Fprintf(&b, " %9.0f", row.e.Quantile(q))
				}
			}
			b.WriteString("\n")
		}
		if p.Static != nil && p.Dynamic != nil {
			fmt.Fprintf(&b, "  median reduction: %.0f%%\n", p.MedianReduction()*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}
