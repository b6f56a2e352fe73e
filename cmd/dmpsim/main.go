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

func main() {
	var (
		polName   = flag.String("policy", "dynamic", "allocation policy: baseline, static, dynamic")
		trace     = flag.String("trace", "synthetic", "trace: synthetic, grizzly, or a dismem bundle path")
		nodes     = flag.Int("nodes", 0, "system size (0 = preset default)")
		memPct    = flag.Int("mem", 100, "total system memory %: 37 43 50 57 62 75 87 100")
		largeFrac = flag.Float64("large-jobs", 0.5, "fraction of large-memory jobs (synthetic trace)")
		overest   = flag.Float64("overest", 0, "memory request overestimation factor (0.6 = +60%)")
		preset    = flag.String("preset", "quick", "scale preset: quick or full")
		confPath  = flag.String("conf", "", "slurm.conf-style configuration file (overrides -policy/-nodes/-mem)")
		timeline  = flag.String("timeline", "", "write an occupancy timeline CSV (t, alloc_mb, busy_nodes, queued, running) here")
		jobsCSV   = flag.String("jobs", "", "write per-job results (schedule, response, stretch, outcome) as CSV here")
		dumpConf  = flag.String("dump-conf", "", "write the resolved configuration as a slurm.conf file here")
		telPath   = flag.String("telemetry", "", "write a JSONL telemetry event log here (inspect with dmpobs)")
		telEvery  = flag.Float64("telemetry-interval", 300, "telemetry pool-sampling period in simulated seconds (0 = events only)")
		promPath  = flag.String("prom", "", "write Prometheus text-format run aggregates here")
		pressure  = flag.String("pressure", "global", "contention model: global (one system-wide rho) or domains (per-rack pressure domains)")
		domains   = flag.Int("domains", 0, "pressure-domain count (0 = the torus Z extent with a topology, else 16; needs -pressure=domains)")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	var pmode core.PressureMode
	switch *pressure {
	case "global":
		pmode = core.PressureGlobal
	case "domains":
		pmode = core.PressureDomains
	default:
		fail("unknown pressure mode %q (want global or domains)", *pressure)
	}

	var tl *core.Timeline
	if *timeline != "" {
		tl = core.NewTimeline()
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
	}

	var kind policy.Kind
	switch *polName {
	case "baseline":
		kind = policy.Baseline
	case "static":
		kind = policy.Static
	case "dynamic":
		kind = policy.Dynamic
	default:
		fail("unknown policy %q", *polName)
	}

	var p experiments.Preset
	switch *preset {
	case "quick":
		p = experiments.Quick()
	case "full":
		p = experiments.Full()
	default:
		fail("unknown preset %q", *preset)
	}
	p.Seed = *seed

	mc, err := experiments.MemConfigByPct(*memPct)
	if err != nil {
		fail("%v", err)
	}

	var jobs []*job.Job
	sysNodes := p.SystemNodes
	switch *trace {
	case "synthetic":
		out, err := p.SyntheticTrace(*largeFrac, *overest)
		if err != nil {
			fail("trace generation: %v", err)
		}
		jobs = out.Jobs
	case "grizzly":
		jobs, err = p.GrizzlyTrace(*overest)
		if err != nil {
			fail("grizzly trace: %v", err)
		}
		sysNodes = p.GrizzlyNodes
	default:
		// Anything else is a bundle path written by dmptrace -bundle.
		f, err := os.Open(*trace)
		if err != nil {
			fail("unknown trace %q and no such bundle file: %v", *trace, err)
		}
		jobs, err = bundle.Read(f)
		f.Close()
		if err != nil {
			fail("bundle %s: %v", *trace, err)
		}
	}
	if *nodes > 0 {
		sysNodes = *nodes
	}

	var res *core.Result
	if *confPath != "" {
		// A slurm.conf file fully specifies the system and policy.
		f, err := os.Open(*confPath)
		if err != nil {
			fail("%v", err)
		}
		parsed, err := slurmconf.Parse(f)
		f.Close()
		if err != nil {
			fail("%s: %v", *confPath, err)
		}
		cfg, err := parsed.CoreConfig()
		if err != nil {
			fail("%s: %v", *confPath, err)
		}
		cfg.Seed = *seed
		if pmode != core.PressureGlobal {
			cfg.Pressure = pmode
			cfg.Domains = *domains
		}
		if tl != nil {
			cfg.Observer = tl
		}
		cfg.Telemetry = rec
		sysNodes = cfg.Cluster.Nodes
		kind = cfg.Policy
		mc = experiments.MemConfig{LabelPct: *memPct, NormalMB: cfg.Cluster.NormalMB, LargeFrac: cfg.Cluster.LargeFrac}
		s, err := core.New(cfg, jobs)
		if err != nil {
			fail("simulation: %v", err)
		}
		if res, err = s.Run(); err != nil {
			fail("simulation: %v", err)
		}
	} else {
		var err error
		res, err = p.RunScenarioWith(jobs, sysNodes, mc, kind, func(cfg *core.Config) {
			if tl != nil {
				cfg.Observer = tl
			}
			if pmode != core.PressureGlobal {
				cfg.Pressure = pmode
				cfg.Domains = *domains
			}
			cfg.Telemetry = rec
		})
		if err != nil {
			fail("simulation: %v", err)
		}
	}

	if rec != nil {
		// Close before reporting: it flushes the JSONL stream and surfaces
		// the first write error of the whole run.
		events, samples := rec.TotalEvents(), rec.Series().Len()
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
		cfg := p.ConfigFor(sysNodes, mc, kind)
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
			res.InfeasibleJob, kind)
		os.Exit(0)
	}

	totalMem := mc.TotalMemMB(sysNodes)
	fmt.Printf("policy:                 %s\n", res.Policy)
	fmt.Printf("system:                 %d nodes, %.1f GB total (%d%%)\n",
		sysNodes, float64(totalMem)/1024, *memPct)
	fmt.Printf("jobs:                   %d submitted, %d completed, %d timed out, %d abandoned\n",
		len(res.Records), res.Completed, res.TimedOut, res.Abandoned)
	fmt.Printf("OOM kills:              %d\n", res.OOMKills)
	fmt.Printf("peak queue depth:       %d\n", res.PeakQueue)
	fmt.Printf("makespan:               %.0f s\n", res.Makespan)
	if pmode == core.PressureDomains {
		fmt.Printf("pressure model:         domains\n")
	}
	fmt.Printf("throughput:             %.6f jobs/s\n", res.Throughput())
	fmt.Printf("throughput per dollar:  %.3e jobs/s/$\n",
		metrics.ThroughputPerDollar(res.Throughput(), sysNodes, totalMem))
	fmt.Printf("mean stretch:           %.3f (1.0 = contention-free)\n", res.MeanStretch())
	fmt.Printf("node utilisation:       %.1f%%\n", res.NodeUtilisation()*100)
	fmt.Printf("memory allocated:       %.1f%% of capacity\n", res.AllocationUtilisation()*100)
	fmt.Printf("memory actually used:   %.1f%% of capacity\n", res.MemoryUtilisation()*100)

	if rts := res.ResponseTimes(); len(rts) > 0 {
		e, err := metrics.NewECDF(rts)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("response time (s):      p25=%.0f p50=%.0f p75=%.0f p90=%.0f max=%.0f\n",
			e.Quantile(0.25), e.Median(), e.Quantile(0.75), e.Quantile(0.9), e.Max())
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmpsim: "+format+"\n", args...)
	os.Exit(1)
}
