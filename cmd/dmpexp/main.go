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
// Each stage's header gives its wall time, CPU seconds and peak live heap;
// a run of several stages ends with the same figures as a table.
//
// Experiments: table2, table3, fig2, fig4, fig5, fig6, fig7, fig8, fig9,
// util (allocated/used/stranded memory), xmodel (CIRNE vs Lublin
// robustness), ab-update, ab-oom, ab-backfill, ab-lender, ab-priority
// (design-choice ablations), ablations (all five), headlines (the paper's
// headline claims, optionally replicated with -seeds), all.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dismem/internal/experiments"
)

func main() {
	// realMain returns instead of calling os.Exit so the profile defers
	// always flush, even on error paths.
	os.Exit(realMain())
}

// realMain's named return lets the profile-flushing defers below fail the
// process: a heap profile that didn't hit disk must not exit 0.
func realMain() (code int) {
	all, _ := experiments.Stages("all")
	names := ""
	for _, st := range all {
		names += st.Name + " "
	}
	exp := flag.String("exp", "all", "experiment: "+names+"ablations all")
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
	opts := experiments.WalkOptions{Grizzly: *withGrizzly, Seeds: *seeds}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
			return 1
		}
		err = experiments.WriteReport(f, p, opts)
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
			fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
			return 1
		}
		if *telDir != "" {
			fmt.Printf("telemetry logs:         %s%c<scenario>_mem<pct>_<policy>.jsonl\n", *telDir, os.PathSeparator)
		}
		fmt.Printf("=== scenario %s (preset %s, %.1fs) ===\n%s\n", *scenario, p.Name, time.Since(start).Seconds(), out)
		if *csvDir != "" && cw != nil {
			path := filepath.Join(*csvDir, "scenario.csv")
			if err := writeFile(path, cw.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		return 0
	}

	stages, err := experiments.Stages(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
		return 2
	}
	meter := startCostMeter()
	defer meter.close()
	var costs []stageCost
	meter.begin()
	err = experiments.Walk(p, stages, opts, func(st experiments.Stage, res fmt.Stringer) error {
		cost := meter.end(st.Name)
		costs = append(costs, cost)
		fmt.Printf("=== %s (preset %s, %s) ===\n%s\n", st.Name, p.Name, cost, res)
		if pl, ok := res.(interface{ Plot() string }); ok && *plot {
			fmt.Println(pl.Plot())
		}
		if cw, ok := res.(csvWriter); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, st.Name+".csv")
			if err := writeFile(path, cw.WriteCSV); err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		meter.begin()
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
		return 1
	}
	if len(costs) > 1 {
		writeCostTable(os.Stdout, p.Name, costs)
	}
	return 0
}

// csvWriter is implemented by every experiment result that can export
// plot-ready data.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

// writeFile creates the file at path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runScenarioFile loads a JSON scenario spec and executes it. When telDir
// is non-empty, the sweep captures every (memory, policy) cell's telemetry,
// and each result row's log is written after the sweep to
// <name>_mem<pct>_<policy>.jsonl in that directory. Every error it returns
// reads "scenario: <path>: ...".
func runScenarioFile(path string, p experiments.Preset, telDir string, telEvery float64) (_ string, _ csvWriter, err error) {
	defer func() {
		if err != nil {
			// The spec loader's errors begin "scenario: " already.
			err = fmt.Errorf("scenario: %s: %s", path, strings.TrimPrefix(err.Error(), "scenario: "))
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	spec, err := experiments.LoadScenario(f)
	if err != nil {
		return "", nil, err
	}
	if telDir == "" {
		res, err := p.RunScenarioSpec(spec)
		if err != nil {
			return "", nil, err
		}
		return res.String(), res, nil
	}
	// The spec's name heads every file name, so it must name no directory.
	if strings.ContainsAny(spec.Name, "/"+string(os.PathSeparator)) {
		return "", nil, fmt.Errorf("field %q: %q contains a path separator; with -telemetry it names files in %s", "name", spec.Name, telDir)
	}
	if err := os.MkdirAll(telDir, 0o755); err != nil {
		return "", nil, err
	}
	res, err := p.RunScenarioSpecCtx(context.Background(), spec, telEvery)
	if err != nil {
		return "", nil, err
	}
	for _, row := range res.Rows {
		name := fmt.Sprintf("%s_mem%03d_%s.jsonl", spec.Name, row.MemPct, row.Policy)
		if err := writeFile(filepath.Join(telDir, name), row.Telemetry.WriteJSONL); err != nil {
			return "", nil, fmt.Errorf("telemetry: %v", err)
		}
	}
	return res.String(), res, nil
}
