package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dismem/internal/traces/grizzly"
)

// The evaluation is one ordered list of stages (every table, figure,
// ablation and the headlines), and dmpexp -exp and the markdown report both
// walk it. A walk produces each input and result once and hands it to its
// later readers: the Grizzly dataset's skeleton is generated once for
// Table 2, Figure 2 and the week sample, the sampled weeks' usage traces are
// built once for every Grizzly panel of Figures 5 and 8, and every simulated
// cell is kept in the walk's table (cells.go) for each figure that reads it.
// Figure 9 and the headlines are read off figures whose cells the walk
// already holds.
//
// A stage walked alone computes only what it reads: Table 2 and Figure 2
// build no trace. The walk drops the Grizzly data after their last reader,
// and its cells with the walk.

// Stage is one step of the evaluation.
type Stage struct {
	Name    string // the dmpexp -exp name
	Title   string // the report's section heading
	grizzly bool   // reads the Grizzly dataset or its sampled weeks
	run     func(*walk) (fmt.Stringer, error)
}

// WalkOptions selects what a walk includes.
type WalkOptions struct {
	Grizzly bool // the Grizzly panels of Figures 5 and 8 (slower)
	Seeds   int  // >1 replicates the headline metrics
}

// evaluation is every stage in order. A stage that reads another's result
// comes after it.
var evaluation = []Stage{
	{Name: "table2", Title: "Table 2 — max memory per node", grizzly: true,
		run: func(w *walk) (fmt.Stringer, error) { return RunTable2(w.p, w.dataset()) }},
	{Name: "table3", Title: "Table 3 — job characteristics",
		run: func(w *walk) (fmt.Stringer, error) { return RunTable3(w.p) }},
	{Name: "fig2", Title: "Figure 2 — Grizzly week sampling", grizzly: true,
		run: func(w *walk) (fmt.Stringer, error) { return RunFig2(w.p, w.dataset()) }},
	{Name: "fig4", Title: "Figure 4 — usage heatmaps", run: func(w *walk) (fmt.Stringer, error) { return RunFig4(w.p) }},
	{Name: "fig5", Title: "Figure 5 — throughput vs provisioned memory", grizzly: true,
		run: func(w *walk) (fmt.Stringer, error) { return runFig5(w.cells, w.sampledWeeks()) }},
	{Name: "fig6", Title: "Figure 6 — response-time distributions", run: byCells(runFig6)},
	{Name: "fig7", Title: "Figure 7 — throughput per dollar", run: byCells(runFig7)},
	{Name: "fig8", Title: "Figure 8 — overestimation sweep", grizzly: true,
		run: func(w *walk) (fmt.Stringer, error) { return runFig8(w.cells, w.sampledWeeks()) }},
	{Name: "fig9", Title: "Figure 9 — minimum provisioning for 95% throughput", run: byCells(runFig9)},
	{Name: "util", Title: "Memory utilisation by policy", run: byCells(runUtilization)},
	{Name: "xmodel", Title: "Cross-model robustness — CIRNE vs Lublin", run: byCells(runModelComparison)},
	{Name: "ab-update", Title: "Ablations — memory-update interval", run: byCells(runAblationUpdateInterval)},
	{Name: "ab-oom", Title: "Ablations — out-of-memory handling", run: byCells(runAblationOOM)},
	{Name: "ab-backfill", Title: "Ablations — backfill algorithm", run: byCells(runAblationBackfill)},
	{Name: "ab-lender", Title: "Ablations — lender selection", run: byCells(runAblationLender)},
	{Name: "ab-priority", Title: "Ablations — priority boost after OOM", run: byCells(runAblationPriority)},
	{Name: "headlines", Title: "Headline metrics", run: func(w *walk) (fmt.Stringer, error) {
		if w.opts.Seeds > 1 { // every seed afresh, the walk's own included
			return RunHeadlines(w.p, w.opts.Seeds)
		}
		return headlines(w.cells)
	}},
}

// byCells adapts a driver that reads cells into a stage.
func byCells[T fmt.Stringer](run func(*cells) (T, error)) func(*walk) (fmt.Stringer, error) {
	return func(w *walk) (fmt.Stringer, error) { return run(w.cells) }
}

// Stages returns the stages a dmpexp -exp name selects, in evaluation
// order: the named stage, "ablations" (every ab- stage) or "all".
func Stages(name string) ([]Stage, error) {
	var out []Stage
	for _, st := range evaluation {
		if name == "all" || name == st.Name || name == "ablations" && strings.HasPrefix(st.Name, "ab-") {
			out = append(out, st)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return out, nil
}

// Walk runs stages in order and hands each stage's result to visit before
// the next stage starts. The Grizzly data are already dropped when visit
// sees the result of their last reader.
func Walk(p Preset, stages []Stage, opts WalkOptions, visit func(Stage, fmt.Stringer) error) error {
	w := &walk{p: p, opts: opts, cells: newCells(p)}
	last := -1
	for i, st := range stages {
		if st.grizzly {
			last = i
		}
	}
	for i, st := range stages {
		res, err := st.run(w)
		if err != nil {
			return fmt.Errorf("%s: %w", st.Name, err)
		}
		if i == last {
			w.d, w.weeks = nil, nil
		}
		if err := visit(st, res); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport walks every stage at the preset's scale and writes the walk
// as a self-contained markdown report — the automated counterpart of this
// repository's EXPERIMENTS.md. Each section holds its stage's body as
// dmpexp -exp prints it.
func WriteReport(w io.Writer, p Preset, opts WalkOptions) error {
	start := time.Now()
	if _, err := fmt.Fprintf(w, "# dismem evaluation report\n\npreset: %s (%d synthetic nodes, %.2g days, seed %d)\n\n",
		p.Name, p.SystemNodes, p.Days, p.Seed); err != nil {
		return err
	}
	err := Walk(p, evaluation, opts, func(st Stage, res fmt.Stringer) error {
		_, err := fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", st.Title, res)
		return err
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "_generated in %.1fs_\n", time.Since(start).Seconds())
	return err
}

// walk holds what one walk has produced so far for its later readers.
type walk struct {
	p    Preset
	opts WalkOptions

	// The Grizzly data, until the last stage that reads them: the
	// dataset's skeleton (a few MiB at Full) and the sampled weeks with
	// their traces.
	d     *grizzly.Dataset
	weeks []grizzly.Week

	cells *cells // every cell the walk's stages have read
}

// dataset returns the walk's Grizzly dataset, generating it on first use.
func (w *walk) dataset() *grizzly.Dataset {
	if w.d == nil {
		w.d = w.p.GrizzlyDataset()
	}
	return w.d
}

// sampledWeeks returns the weeks the Grizzly panels simulate, built on
// first use, or nil when the walk leaves those panels out.
func (w *walk) sampledWeeks() []grizzly.Week {
	if w.weeks == nil && w.opts.Grizzly {
		w.weeks = w.p.SampledWeeks(w.dataset())
	}
	return w.weeks
}

// headlines reads the paper's four headline claims off Figures 5, 6, 7 and
// 9, each read from c: in a walk, off the cells its figures simulated.
func headlines(c *cells) (headlineValues, error) {
	f5, err := runFig5(c, nil)
	if err != nil {
		return headlineValues{}, err
	}
	f6, err := runFig6(c)
	if err != nil {
		return headlineValues{}, err
	}
	f7, err := runFig7(c)
	if err != nil {
		return headlineValues{}, err
	}
	f9, err := runFig9(c)
	if err != nil {
		return headlineValues{}, err
	}
	return headlineValues{
		ThroughputGain:   f5.DynamicAdvantage(),
		TPDGain:          f7.MaxDynamicGain(),
		MedianRespReduct: f6.MaxUnderprovisionedReduction(),
		MemorySaving:     f9.MaxMemorySaving(),
	}, nil
}
