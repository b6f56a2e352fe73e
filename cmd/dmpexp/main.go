// Command dmpexp regenerates the paper's tables and figures, the
// supplementary experiments, and the design-choice ablations.
//
// Usage:
//
//	dmpexp -exp fig5 [-preset quick|full] [-grizzly] [-seed N]
//	dmpexp -exp all -preset quick -csv out/ -plot
//	dmpexp -exp headlines -seeds 5
//	dmpexp -scenario study.json
//	dmpexp -report report.md
//
// Experiments: table2, table3, fig2, fig4, fig5, fig6, fig7, fig8, fig9,
// util (allocated/used/stranded memory), xmodel (CIRNE vs Lublin
// robustness), ab-update, ab-oom, ab-backfill, ab-lender, ab-priority
// (design-choice ablations), ablations (all five), headlines (the paper's
// headline claims, optionally replicated with -seeds), all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/telemetry"
)

func main() {
	// realMain returns instead of calling os.Exit so the profile defers
	// always flush, even on error paths.
	os.Exit(realMain())
}

// realMain's named return lets the profile-flushing defers below fail the
// process: a heap profile that didn't hit disk must not exit 0.
func realMain() (code int) {
	exp := flag.String("exp", "all", "experiment: table2 table3 fig2 fig4 fig5 fig6 fig7 fig8 fig9 ab-update ab-oom ab-backfill ab-lender ablations headlines all")
	preset := flag.String("preset", "quick", "scale preset: quick or full")
	withGrizzly := flag.Bool("grizzly", true, "include the Grizzly columns in fig5/fig8")
	csvDir := flag.String("csv", "", "also write plot-ready CSVs into this directory")
	plot := flag.Bool("plot", false, "render terminal charts where available")
	seed := flag.Int64("seed", 1, "random seed")
	seeds := flag.Int("seeds", 1, "replications for the headlines experiment (mean ± stdev)")
	scenario := flag.String("scenario", "", "run a JSON scenario spec instead of a named experiment")
	telDir := flag.String("telemetry", "", "with -scenario: write one JSONL event log per (memory, policy) cell into this directory")
	telEvery := flag.Float64("telemetry-interval", 300, "telemetry pool-sampling period in simulated seconds (0 = events only)")
	report := flag.String("report", "", "write a full markdown evaluation report to this path and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: cpuprofile: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC() // settle allocations so the heap profile reflects live data
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: memprofile: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", *memprofile)
		}()
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
			return 1
		}
	}

	var p experiments.Preset
	switch *preset {
	case "quick":
		p = experiments.Quick()
	case "full":
		p = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "dmpexp: unknown preset %q\n", *preset)
		return 2
	}
	p.Seed = *seed

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
			return 1
		}
		err = experiments.WriteReport(f, p, experiments.ReportOptions{
			Grizzly:   *withGrizzly,
			Ablations: true,
			Seeds:     *seeds,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: report: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *report)
		return 0
	}

	if *telDir != "" && *scenario == "" {
		fmt.Fprintln(os.Stderr, "dmpexp: -telemetry requires -scenario")
		return 2
	}
	if *scenario != "" {
		start := time.Now()
		out, cw, err := runScenarioFile(*scenario, p, *telDir, *telEvery)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: scenario: %v\n", err)
			return 1
		}
		if *telDir != "" {
			fmt.Printf("telemetry logs:         %s%c<scenario>_mem<pct>_<policy>.jsonl\n", *telDir, os.PathSeparator)
		}
		fmt.Printf("=== scenario %s (preset %s, %.1fs) ===\n%s\n", *scenario, p.Name, time.Since(start).Seconds(), out)
		if *csvDir != "" && cw != nil {
			path := filepath.Join(*csvDir, "scenario.csv")
			if err := writeCSVFile(path, cw); err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		return 0
	}

	names := []string{*exp}
	switch *exp {
	case "all":
		names = []string{"table2", "table3", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
			"util", "xmodel", "ab-update", "ab-oom", "ab-backfill", "ab-lender", "ab-priority", "headlines"}
	case "ablations":
		names = []string{"ab-update", "ab-oom", "ab-backfill", "ab-lender", "ab-priority"}
	}
	for _, name := range names {
		start := time.Now()
		out, cw, err := run(name, p, *withGrizzly, *seeds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("=== %s (preset %s, %.1fs) ===\n%s\n", name, p.Name, time.Since(start).Seconds(), out)
		if *plot {
			if pl, ok := cw.(interface{ Plot() string }); ok {
				fmt.Println(pl.Plot())
			}
		}
		if *csvDir != "" && cw != nil {
			path := filepath.Join(*csvDir, name+".csv")
			if err := writeCSVFile(path, cw); err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	return 0
}

// csvWriter is implemented by every experiment result that can export
// plot-ready data.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

func writeCSVFile(path string, cw csvWriter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cw.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// result is what every experiment driver returns: printable and CSV-able.
type result interface {
	fmt.Stringer
	csvWriter
}

// wrap folds a (result, error) pair into run's return shape.
func wrap[T result](r T, err error) (string, csvWriter, error) {
	if err != nil {
		return "", nil, err
	}
	return r.String(), r, nil
}

func run(name string, p experiments.Preset, grizzly bool, seeds int) (string, csvWriter, error) {
	switch name {
	case "xmodel":
		return wrap(experiments.RunModelComparison(p))
	case "util":
		return wrap(experiments.RunUtilization(p))
	case "table2":
		return wrap(experiments.RunTable2(p))
	case "table3":
		return wrap(experiments.RunTable3(p))
	case "fig2":
		return wrap(experiments.RunFig2(p))
	case "fig4":
		return wrap(experiments.RunFig4(p))
	case "fig5":
		return wrap(experiments.RunFig5(p, grizzly))
	case "fig6":
		return wrap(experiments.RunFig6(p))
	case "fig7":
		return wrap(experiments.RunFig7(p))
	case "fig8":
		return wrap(experiments.RunFig8(p, grizzly))
	case "fig9":
		return wrap(experiments.RunFig9(p))
	case "ab-update":
		return wrap(experiments.RunAblationUpdateInterval(p))
	case "ab-oom":
		return wrap(experiments.RunAblationOOM(p))
	case "ab-backfill":
		return wrap(experiments.RunAblationBackfill(p))
	case "ab-lender":
		return wrap(experiments.RunAblationLender(p))
	case "ab-priority":
		return wrap(experiments.RunAblationPriority(p))
	case "headlines":
		if seeds > 1 {
			h, err := experiments.RunHeadlines(p, seeds)
			if err != nil {
				return "", nil, err
			}
			return h.String(), nil, nil
		}
		out, err := headlines(p)
		return out, nil, err
	default:
		return "", nil, fmt.Errorf("unknown experiment %q", name)
	}
}

// headlines reproduces the paper's headline claims in one summary.
func headlines(p experiments.Preset) (string, error) {
	var b strings.Builder
	f5, err := experiments.RunFig5(p, false)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "max throughput gain (dynamic - static):          %+.1f%%  (paper: up to 8%% at +0%%, 13%% at +60%%)\n",
		f5.DynamicAdvantage()*100)

	f7, err := experiments.RunFig7(p)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "max throughput-per-dollar gain (dynamic/static): %+.1f%%  (paper: up to 38%%)\n",
		f7.MaxDynamicGain()*100)

	f6, err := experiments.RunFig6(p)
	if err != nil {
		return "", err
	}
	best := 0.0
	for _, panel := range f6.Panels {
		if panel.Overest > 0 && panel.Scenario == "underprovisioned" {
			if r := panel.MedianReduction(); r > best {
				best = r
			}
		}
	}
	fmt.Fprintf(&b, "median response-time reduction (underprov +60%%): %.0f%%  (paper: 69%%)\n", best*100)

	f9, err := experiments.RunFig9(p)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "max memory saving at 95%% throughput:             %d pts (paper: ~40%%)\n", f9.MaxMemorySaving())
	return b.String(), nil
}

// runScenarioFile loads a JSON scenario spec and executes it. When telDir
// is non-empty, every (memory, policy) cell of the sweep streams its own
// JSONL event log into that directory.
func runScenarioFile(path string, p experiments.Preset, telDir string, telEvery float64) (string, csvWriter, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	spec, err := experiments.LoadScenario(f)
	if err != nil {
		return "", nil, err
	}
	// Cells run on parallel sweep workers; the factory hands each cell a
	// private recorder so the per-cell logs stay byte-deterministic. File
	// creation errors are collected here (the factory cannot return one)
	// and surfaced after the sweep.
	var mu sync.Mutex
	var telErr error
	if telDir != "" {
		if err := os.MkdirAll(telDir, 0o755); err != nil {
			return "", nil, err
		}
		spec.Telemetry = func(memPct int, pol string) *telemetry.Recorder {
			name := fmt.Sprintf("%s_mem%03d_%s.jsonl", spec.Name, memPct, pol)
			out, err := os.Create(filepath.Join(telDir, name))
			if err != nil {
				mu.Lock()
				if telErr == nil {
					telErr = err
				}
				mu.Unlock()
				return nil
			}
			return telemetry.New(telemetry.Options{
				Sink:           telemetry.NewJSONL(out),
				SampleInterval: telEvery,
			})
		}
	}
	res, err := p.RunScenarioSpec(spec)
	if err != nil {
		return "", nil, err
	}
	if telErr != nil {
		return "", nil, fmt.Errorf("telemetry: %v", telErr)
	}
	return res.String(), res, nil
}
