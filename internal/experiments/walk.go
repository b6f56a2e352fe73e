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
// later readers: the Grizzly dataset is generated once for Table 2 and
// Figure 2, the sampled weeks are copied out of it once for every Grizzly
// panel of Figures 5 and 8, Figure 9 is read off the walk's Figure 8, and
// the headlines off its Figures 5, 6, 7 and 9.
//
// Figures 5 and 8 are lists of panels, one trace at one overestimation
// each. The walk keeps every panel a figure returned, keyed by its label,
// and a later figure takes the panels the walk holds instead of building
// them: Figure 8's +0 % and +60 % panels are Figure 5's. Figures are built
// one after another on the walk's goroutine, so the walk writes its panels
// only between figures and needs no lock.
//
// A stage walked alone computes only what it reads. The walk drops the
// Grizzly data after its last reader, and its panels with the walk.

// Stage is one step of the evaluation.
type Stage struct {
	Name  string // the dmpexp -exp name
	Title string // the report's section heading
	reads reads  // the Grizzly data the stage reads
	run   func(*walk) (fmt.Stringer, error)
}

// reads is the set of Grizzly inputs a stage reads.
type reads uint8

const (
	readsDataset reads = 1 << iota // the whole dataset
	readsWeeks                     // the sampled weeks, when the walk has Grizzly panels
)

// WalkOptions selects what a walk includes.
type WalkOptions struct {
	Grizzly bool // the Grizzly panels of Figures 5 and 8 (slower)
	Seeds   int  // >1 replicates the headline metrics
}

// evaluation is every stage in order. A stage that reads another's result
// comes after it.
var evaluation = []Stage{
	{Name: "table2", Title: "Table 2 — max memory per node", reads: readsDataset,
		run: func(w *walk) (fmt.Stringer, error) { return RunTable2(w.p, w.dataset()) }},
	{Name: "table3", Title: "Table 3 — job characteristics", run: byPreset(RunTable3)},
	{Name: "fig2", Title: "Figure 2 — Grizzly week sampling", reads: readsDataset,
		run: func(w *walk) (fmt.Stringer, error) { return RunFig2(w.p, w.dataset()) }},
	{Name: "fig4", Title: "Figure 4 — usage heatmaps", run: byPreset(RunFig4)},
	{Name: "fig5", Title: "Figure 5 — throughput vs provisioned memory", reads: readsWeeks,
		run: func(w *walk) (fmt.Stringer, error) { return w.fig5(w.sampledWeeks()) }},
	{Name: "fig6", Title: "Figure 6 — response-time distributions",
		run: func(w *walk) (fmt.Stringer, error) { return w.fig6() }},
	{Name: "fig7", Title: "Figure 7 — throughput per dollar",
		run: func(w *walk) (fmt.Stringer, error) { return w.fig7() }},
	{Name: "fig8", Title: "Figure 8 — overestimation sweep", reads: readsWeeks,
		run: func(w *walk) (fmt.Stringer, error) { return w.fig8(w.sampledWeeks()) }},
	{Name: "fig9", Title: "Figure 9 — minimum provisioning for 95% throughput",
		run: func(w *walk) (fmt.Stringer, error) { return w.fig9() }},
	{Name: "util", Title: "Memory utilisation by policy", run: byPreset(RunUtilization)},
	{Name: "xmodel", Title: "Cross-model robustness — CIRNE vs Lublin", run: byPreset(RunModelComparison)},
	{Name: "ab-update", Title: "Ablations — memory-update interval", run: byPreset(RunAblationUpdateInterval)},
	{Name: "ab-oom", Title: "Ablations — out-of-memory handling", run: byPreset(RunAblationOOM)},
	{Name: "ab-backfill", Title: "Ablations — backfill algorithm", run: byPreset(RunAblationBackfill)},
	{Name: "ab-lender", Title: "Ablations — lender selection", run: byPreset(RunAblationLender)},
	{Name: "ab-priority", Title: "Ablations — priority boost after OOM", run: byPreset(RunAblationPriority)},
	{Name: "headlines", Title: "Headline metrics", run: func(w *walk) (fmt.Stringer, error) {
		if w.opts.Seeds > 1 { // every seed afresh, the walk's own included
			return RunHeadlines(w.p, w.opts.Seeds)
		}
		return w.headlines()
	}},
}

// byPreset adapts a driver that reads only the preset into a stage.
func byPreset[T fmt.Stringer](run func(Preset) (T, error)) func(*walk) (fmt.Stringer, error) {
	return func(w *walk) (fmt.Stringer, error) { return run(w.p) }
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
	w := newWalk(p, opts)
	lastDataset, lastWeeks := -1, -1
	for i, st := range stages {
		if st.reads&readsDataset != 0 {
			lastDataset = i
		}
		if st.reads&readsWeeks != 0 {
			lastWeeks = i
		}
	}
	for i, st := range stages {
		res, err := st.run(w)
		if err != nil {
			return fmt.Errorf("%s: %w", st.Name, err)
		}
		if i == lastDataset {
			if lastWeeks > i {
				w.sampledWeeks() // copied out before the dataset goes
			}
			w.d = nil
		}
		if i == lastWeeks {
			w.weeks = nil
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

	d     *grizzly.Dataset // until the last stage that reads it
	weeks []grizzly.Week   // until the last stage that reads them

	panels map[panelKey]*ThroughputGrid // every panel the walk's figures returned

	f5 *Fig5
	f6 *Fig6
	f7 *Fig7
	f8 *Fig8
	f9 *Fig9
}

func newWalk(p Preset, opts WalkOptions) *walk {
	return &walk{p: p, opts: opts, panels: map[panelKey]*ThroughputGrid{}}
}

// dataset returns the walk's Grizzly dataset, generating it on first use.
func (w *walk) dataset() *grizzly.Dataset {
	if w.d == nil {
		w.d = w.p.GrizzlyDataset()
	}
	return w.d
}

// sampledWeeks returns the weeks the Grizzly panels simulate, or nil when
// the walk leaves those panels out. They come from the walk's dataset if it
// holds one, or else from a dataset generated for them and not kept.
func (w *walk) sampledWeeks() []grizzly.Week {
	if w.weeks == nil && w.opts.Grizzly {
		d := w.d
		if d == nil {
			d = w.p.GrizzlyDataset()
		}
		w.weeks = w.p.SampledWeeks(d)
	}
	return w.weeks
}

// once returns *slot, filling it with run's result first if it is empty.
func once[T any](slot **T, run func() (*T, error)) (*T, error) {
	if *slot == nil {
		v, err := run()
		if err != nil {
			return nil, err
		}
		*slot = v
	}
	return *slot, nil
}

// fig5 returns the walk's Figure 5, running it over weeks if the walk has
// none yet. The fig5 stage passes the sampled weeks; a later reader in a
// walk without that stage passes nil and gets the synthetic panels only.
func (w *walk) fig5(weeks []grizzly.Week) (*Fig5, error) {
	return once(&w.f5, func() (*Fig5, error) { return runFig5(w.p, weeks, w.panels) })
}

func (w *walk) fig6() (*Fig6, error) {
	return once(&w.f6, func() (*Fig6, error) { return RunFig6(w.p) })
}

func (w *walk) fig7() (*Fig7, error) {
	return once(&w.f7, func() (*Fig7, error) { return RunFig7(w.p) })
}

// fig8 is fig5's counterpart for Figure 8.
func (w *walk) fig8(weeks []grizzly.Week) (*Fig8, error) {
	return once(&w.f8, func() (*Fig8, error) { return runFig8(w.p, weeks, w.panels) })
}

// fig9 reads Figure 9 off the walk's Figure 8, running only Figure 8's
// synthetic row when the walk has no Figure 8.
func (w *walk) fig9() (*Fig9, error) {
	return once(&w.f9, func() (*Fig9, error) {
		f8, err := w.fig8(nil)
		if err != nil {
			return nil, err
		}
		return Fig9FromFig8(f8, 0.95)
	})
}

// headlines reads the paper's four headline claims off the walk's Figures
// 5, 6, 7 and 9.
func (w *walk) headlines() (headlineValues, error) {
	f5, err := w.fig5(nil)
	if err != nil {
		return headlineValues{}, err
	}
	f6, err := w.fig6()
	if err != nil {
		return headlineValues{}, err
	}
	f7, err := w.fig7()
	if err != nil {
		return headlineValues{}, err
	}
	f9, err := w.fig9()
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
