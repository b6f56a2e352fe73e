// Command dmpsim runs one disaggregated-memory scheduling simulation and
// prints a scenario summary: throughput, response-time quantiles,
// utilisation, OOM events, and cost-benefit.
//
// Usage:
//
//	dmpsim -policy dynamic -nodes 1024 -mem 75 -large-jobs 0.5 -overest 0.6
//	dmpsim -trace grizzly -policy static -mem 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dismem/internal/bundle"
	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/job"
	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/slurmconf"
	"dismem/internal/telemetry"
)

// options is the command line that selects what runs; the output paths
// stay in main.
type options struct {
	policy, trace, preset, conf, pressure string
	nodes, memPct, domains                int
	largeFrac, overest                    float64
	seed                                  int64
}

// configure turns the options into the one configuration that runs and its
// workload. A -conf file fully specifies the system and policy; without one
// the preset's ConfigFor builds the configuration from -policy, -nodes and
// -mem. -pressure and -domains apply to either.
func configure(o options) (core.Config, []*job.Job, error) {
	var cfg core.Config
	pmode, err := core.ParsePressure(o.pressure)
	if err != nil {
		return cfg, nil, fmt.Errorf("-pressure: %v", err)
	}
	kind, err := policy.ParseKind(o.policy)
	if err != nil {
		return cfg, nil, fmt.Errorf("-policy: %v", err)
	}
	var p experiments.Preset
	switch o.preset {
	case "quick":
		p = experiments.Quick()
	case "full":
		p = experiments.Full()
	default:
		return cfg, nil, fmt.Errorf("unknown preset %q", o.preset)
	}
	p.Seed = o.seed
	mc, err := experiments.MemConfigByPct(o.memPct)
	if err != nil {
		return cfg, nil, err
	}

	var jobs []*job.Job
	sysNodes := p.SystemNodes
	switch o.trace {
	case "synthetic":
		out, err := p.SyntheticTrace(o.largeFrac, o.overest)
		if err != nil {
			return cfg, nil, fmt.Errorf("trace generation: %v", err)
		}
		jobs = out.Jobs
	case "grizzly":
		// The first sampled week, its traces built into the jobs only.
		week := p.PickWeeks(p.GrizzlyDataset())[0]
		if jobs, err = p.GrizzlyJobs(week, o.overest); err != nil {
			return cfg, nil, fmt.Errorf("grizzly trace: %v", err)
		}
		sysNodes = p.GrizzlyNodes
	default:
		// Anything else is a bundle path written by dmptrace -bundle.
		f, err := os.Open(o.trace)
		if err != nil {
			return cfg, nil, fmt.Errorf("unknown trace %q and no such bundle file: %v", o.trace, err)
		}
		jobs, err = bundle.Read(f)
		f.Close()
		if err != nil {
			return cfg, nil, fmt.Errorf("bundle %s: %v", o.trace, err)
		}
	}
	if o.nodes > 0 {
		sysNodes = o.nodes
	}

	if o.conf != "" {
		f, err := os.Open(o.conf)
		if err != nil {
			return cfg, nil, err
		}
		parsed, err := slurmconf.Parse(f)
		f.Close()
		if err != nil {
			return cfg, nil, fmt.Errorf("%s: %v", o.conf, err)
		}
		if cfg, err = parsed.CoreConfig(); err != nil {
			return cfg, nil, fmt.Errorf("%s: %v", o.conf, err)
		}
		cfg.Seed = o.seed
	} else {
		cfg = p.ConfigFor(sysNodes, mc, kind)
	}
	if pmode != core.PressureGlobal {
		cfg.Pressure = pmode
		cfg.Domains = o.domains
	}
	return cfg, jobs, nil
}

func main() {
	var o options
	flag.StringVar(&o.policy, "policy", "dynamic", "allocation policy: baseline, static, dynamic")
	flag.StringVar(&o.trace, "trace", "synthetic", "trace: synthetic, grizzly, or a dismem bundle path")
	flag.IntVar(&o.nodes, "nodes", 0, "system size (0 = preset default)")
	flag.IntVar(&o.memPct, "mem", 100, "total system memory %: 37 43 50 57 62 75 87 100")
	flag.Float64Var(&o.largeFrac, "large-jobs", 0.5, "fraction of large-memory jobs (synthetic trace)")
	flag.Float64Var(&o.overest, "overest", 0, "memory request overestimation factor (0.6 = +60%)")
	flag.StringVar(&o.preset, "preset", "quick", "scale preset: quick or full")
	flag.StringVar(&o.conf, "conf", "", "slurm.conf-style configuration file (overrides -policy/-nodes/-mem)")
	flag.StringVar(&o.pressure, "pressure", "global", "contention model: global (one system-wide rho) or domains (per-rack pressure domains)")
	flag.IntVar(&o.domains, "domains", 0, "pressure-domain count (0 = the torus Z extent with a topology, else 16; needs -pressure=domains)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	var (
		timeline = flag.String("timeline", "", "write an occupancy timeline CSV (t, alloc_mb, busy_nodes, queued, running) here")
		jobsCSV  = flag.String("jobs", "", "write per-job results (schedule, response, stretch, outcome) as CSV here")
		dumpConf = flag.String("dump-conf", "", "write the configuration that ran as a slurm.conf file here")
		telPath  = flag.String("telemetry", "", "write a JSONL telemetry event log here (inspect with dmpobs)")
		telEvery = flag.Float64("telemetry-interval", 300, "telemetry pool-sampling period in simulated seconds (0 = events only)")
		promPath = flag.String("prom", "", "write Prometheus text-format run aggregates here")
	)
	flag.Parse()

	cfg, jobs, err := configure(o)
	if err != nil {
		fail("%v", err)
	}

	var tl *core.Timeline
	if *timeline != "" {
		tl = core.NewTimeline()
		cfg.Observer = tl
	}

	// Telemetry: a nil recorder keeps the simulation's emit path at one
	// pointer compare, so it is only built when an output was requested.
	var rec *telemetry.Recorder
	var prom *telemetry.PromSink
	if *telPath != "" || *promPath != "" {
		var sinks telemetry.MultiSink
		if *telPath != "" {
			f, err := os.Create(*telPath)
			if err != nil {
				fail("telemetry: %v", err)
			}
			sinks = append(sinks, telemetry.NewJSONL(f))
		}
		if *promPath != "" {
			prom = telemetry.NewPromSink()
			sinks = append(sinks, prom)
		}
		var sink telemetry.Sink = sinks
		if len(sinks) == 1 {
			sink = sinks[0]
		}
		rec = telemetry.New(telemetry.Options{Sink: sink, SampleInterval: *telEvery})
		cfg.Telemetry = rec
	}

	s, err := core.New(cfg, jobs)
	if err != nil {
		fail("simulation: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		fail("simulation: %v", err)
	}

	if rec != nil {
		// Close before reporting: it flushes the JSONL stream and surfaces
		// the first write error of the whole run.
		events, samples := rec.TotalEvents(), rec.Samples()
		if err := rec.Close(); err != nil {
			fail("telemetry: %v", err)
		}
		if *telPath != "" {
			fmt.Printf("telemetry log:          %s (%d events, %d samples)\n", *telPath, events, samples)
		}
		if prom != nil {
			f, err := os.Create(*promPath)
			if err != nil {
				fail("prom: %v", err)
			}
			if err := prom.WriteText(f); err != nil {
				f.Close()
				fail("prom: %v", err)
			}
			if err := f.Close(); err != nil {
				fail("prom: %v", err)
			}
			fmt.Printf("prometheus aggregates:  %s\n", *promPath)
		}
	}

	if *dumpConf != "" {
		f, err := os.Create(*dumpConf)
		if err != nil {
			fail("%v", err)
		}
		if err := slurmconf.WriteConfig(f, cfg); err != nil {
			f.Close()
			fail("dump-conf: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("dump-conf: %v", err)
		}
		fmt.Printf("configuration:          %s\n", *dumpConf)
	}

	if *jobsCSV != "" {
		f, err := os.Create(*jobsCSV)
		if err != nil {
			fail("%v", err)
		}
		if err := res.WriteJobsCSV(f); err != nil {
			f.Close()
			fail("jobs csv: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("jobs csv: %v", err)
		}
		fmt.Printf("per-job results:        %s\n", *jobsCSV)
	}

	if tl != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fail("%v", err)
		}
		if err := tl.WriteCSV(f); err != nil {
			f.Close()
			fail("timeline: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("timeline: %v", err)
		}
		fmt.Printf("timeline:               %s (%d samples, peak queue %d)\n",
			*timeline, len(tl.Samples), tl.PeakQueued())
	}
	if res.Infeasible {
		fmt.Printf("scenario infeasible: job %d can never run under %s on this system\n",
			res.InfeasibleJob, cfg.Policy)
		os.Exit(0)
	}

	if err := summary(os.Stdout, o, cfg, res); err != nil {
		fail("%v", err)
	}
}

// summary writes the run's report.
func summary(w io.Writer, o options, cfg core.Config, res *core.Result) error {
	sysNodes := cfg.Cluster.Nodes
	totalMem := experiments.MemConfig{NormalMB: cfg.Cluster.NormalMB, LargeFrac: cfg.Cluster.LargeFrac}.TotalMemMB(sysNodes)
	// The -mem label names a point on the paper's memory axis; a -conf
	// system need not sit on that axis, so it gets no percentage.
	share := ""
	if o.conf == "" {
		share = fmt.Sprintf(" (%d%%)", o.memPct)
	}
	fmt.Fprintf(w, "policy:                 %s\n", res.Policy)
	fmt.Fprintf(w, "system:                 %d nodes, %.1f GB total%s\n",
		sysNodes, float64(totalMem)/1024, share)
	fmt.Fprintf(w, "jobs:                   %d submitted, %d completed, %d timed out, %d abandoned\n",
		len(res.Records), res.Completed, res.TimedOut, res.Abandoned)
	fmt.Fprintf(w, "OOM kills:              %d\n", res.OOMKills)
	fmt.Fprintf(w, "peak queue depth:       %d\n", res.PeakQueue)
	fmt.Fprintf(w, "makespan:               %.0f s\n", res.Makespan)
	if cfg.Pressure == core.PressureDomains {
		fmt.Fprintf(w, "pressure model:         domains\n")
	}
	fmt.Fprintf(w, "throughput:             %.6f jobs/s\n", res.Throughput())
	fmt.Fprintf(w, "throughput per dollar:  %.3e jobs/s/$\n",
		metrics.ThroughputPerDollar(res.Throughput(), sysNodes, totalMem))
	fmt.Fprintf(w, "mean stretch:           %.3f (1.0 = contention-free)\n", res.MeanStretch())
	fmt.Fprintf(w, "node utilisation:       %.1f%%\n", res.NodeUtilisation()*100)
	fmt.Fprintf(w, "memory allocated:       %.1f%% of capacity\n", res.AllocationUtilisation()*100)
	fmt.Fprintf(w, "memory actually used:   %.1f%% of capacity\n", res.MemoryUtilisation()*100)

	if rts := res.ResponseTimes(); len(rts) > 0 {
		e, err := metrics.NewECDF(rts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "response time (s):      p25=%.0f p50=%.0f p75=%.0f p90=%.0f max=%.0f\n",
			e.Quantile(0.25), e.Median(), e.Quantile(0.75), e.Quantile(0.9), e.Max())
	}
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmpsim: "+format+"\n", args...)
	os.Exit(1)
}
