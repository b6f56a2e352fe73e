// Benchmarks regenerating each table and figure of the paper's evaluation
// at the Bench preset scale (32-node system, quarter-day traces). Run with
//
//	go test -bench=. -benchmem
//
// Every BenchmarkTableN/BenchmarkFigN corresponds to the same-numbered
// artefact in the paper; the per-iteration wall time is the cost of a full
// regeneration at that scale.
package dismem

import (
	"slices"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/slowdown"
	"dismem/internal/tracegen"
)

func benchPreset() experiments.Preset { return experiments.Bench() }

// grizzlyWeekJobs builds the first sampled Grizzly week of p at +50 %
// overestimation.
func grizzlyWeekJobs(p experiments.Preset) ([]*job.Job, error) {
	weeks := p.SampledWeeks(p.GrizzlyDataset())
	return p.GrizzlyJobs(&weeks[0], 0.5)
}

func BenchmarkTable2(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(p, p.GrizzlyDataset()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(p, p.GrizzlyDataset()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the whole figure — the 7×2 synthetic grid —
// through the barrier-free pipeline. The trace cache is reset every
// iteration so each run pays the full cold cost; cross-iteration reuse
// would understate it.
func BenchmarkFig5(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		tracegen.ResetCache()
		if _, err := experiments.RunFig5(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		tracegen.ResetCache()
		if _, err := experiments.RunFig6(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		tracegen.ResetCache()
		if _, err := experiments.RunFig7(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		tracegen.ResetCache()
		if _, err := experiments.RunFig8(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		tracegen.ResetCache()
		if _, err := experiments.RunFig9(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadlines regenerates the four replicated headline metrics
// (two seeds). Fig. 5/6/7/9 replications share every trace through the
// cache, so this also measures the cross-figure dedup win.
func BenchmarkHeadlines(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		tracegen.ResetCache()
		if _, err := experiments.RunHeadlines(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario isolates one simulation run (trace generation hoisted
// out), per policy — the inner loop every figure is built from.
func BenchmarkScenario(b *testing.B) {
	p := benchPreset()
	trace, err := p.SyntheticTrace(0.5, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := experiments.MemConfigByPct(75)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.RunScenario(trace.Jobs, p.SystemNodes, mc, kind); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// grizzly-scale: one sampled week of the synthetic Grizzly system at the
	// paper's full 1490 nodes under the dynamic policy — the high
	// concurrent-running regime where per-event refresh cost dominates. Run
	// it with a low -benchtime (it is orders of magnitude heavier than the
	// sub-benchmarks above, which is the point).
	b.Run("grizzly-scale", func(b *testing.B) {
		gp := benchPreset()
		gp.GrizzlyNodes = 1490
		jobs, err := grizzlyWeekJobs(gp)
		if err != nil {
			b.Fatal(err)
		}
		gmc, err := experiments.MemConfigByPct(62)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gp.RunScenario(jobs, gp.GrizzlyNodes, gmc, policy.Dynamic); err != nil {
				b.Fatal(err)
			}
		}
	})

	// grizzly-scale-domains: the same week under the partitioned pressure
	// model — per-rack contention domains instead of one global rho. Results
	// are a different (finer) contention model, not bit-comparable to
	// grizzly-scale.
	b.Run("grizzly-scale-domains", func(b *testing.B) {
		gp := benchPreset()
		gp.GrizzlyNodes = 1490
		jobs, err := grizzlyWeekJobs(gp)
		if err != nil {
			b.Fatal(err)
		}
		gmc, err := experiments.MemConfigByPct(62)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := gp.ConfigFor(gp.GrizzlyNodes, gmc, policy.Dynamic)
			cfg.Pressure = core.PressureDomains
			cfg.Domains = 16
			s, err := core.New(cfg, jobs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// 100k: a 100,000-node cluster with ~2000 concurrently running
	// multi-node jobs under the dynamic policy and the global contention
	// model, on a 64-shard ledger. The trace is
	// handcrafted (the synthetic generators top out at paper scale) so the
	// benchmark isolates simulator cost, not generation cost. One iteration
	// must stay under a minute on a single core (gated in CI).
	b.Run("100k", func(b *testing.B) {
		runHundredK(b, hundredKJobs(false), core.Config{
			Cluster: cluster.Config{
				Nodes:    100_000,
				Cores:    32,
				NormalMB: experiments.NormalNodeMB,
				Shards:   64,
			},
			Policy:         policy.Dynamic,
			UpdateInterval: 200,
			Seed:           1,
		})
	})

	// 100k-unsharded: the 100k run with Cluster.Shards unset, which picks
	// ⌈100000/2048⌉ = 49 shards, so this row measures the default shard
	// layout.
	b.Run("100k-unsharded", func(b *testing.B) {
		runHundredK(b, hundredKJobs(false), core.Config{
			Cluster: cluster.Config{
				Nodes:    100_000,
				Cores:    32,
				NormalMB: experiments.NormalNodeMB,
			},
			Policy:         policy.Dynamic,
			UpdateInterval: 200,
			Seed:           1,
		})
	})

	// 100k-domains: the same trace as 100k under the partitioned pressure
	// model (64 domains, hence 64 ledger shards as in 100k). Both models
	// run one refresh, which walks only the touched domains' jobs holding
	// remote memory; the global model is its one-domain case. The two
	// cost about the same: on a 2-vCPU Xeon with go1.24 (-benchtime 1x,
	// three runs) 0.09-0.12 s for 100k and 0.11-0.12 s for 100k-domains.
	// CI gates each against its own BENCH_8 median, not their ratio.
	b.Run("100k-domains", func(b *testing.B) {
		runHundredK(b, hundredKJobs(false), core.Config{
			Cluster: cluster.Config{
				Nodes:    100_000,
				Cores:    32,
				NormalMB: experiments.NormalNodeMB,
			},
			Policy:         policy.Dynamic,
			UpdateInterval: 200,
			Pressure:       core.PressureDomains,
			Domains:        64,
			Seed:           1,
		})
	})

	// 100k-borrow: the 100k run with one job in seven outgrowing its
	// 64 GiB nodes, as in dmpbench's fleet-100k. Those jobs climb to
	// 80 GiB per node, so Adjust borrows remote memory at their memory
	// updates and the lender-order reads run at 100,000 nodes; the rows
	// above never borrow.
	b.Run("100k-borrow", func(b *testing.B) {
		runHundredK(b, hundredKJobs(true), core.Config{
			Cluster: cluster.Config{
				Nodes:    100_000,
				Cores:    32,
				NormalMB: experiments.NormalNodeMB,
				Shards:   64,
			},
			Policy:         policy.Dynamic,
			UpdateInterval: 200,
			Seed:           1,
		})
	})
}

// runHundredK times b.N full runs of jobs under cfg.
func runHundredK(b *testing.B, jobs []*job.Job, cfg core.Config) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.New(cfg, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// hundredKJobs handcrafts the 100k-node workload: 2000 jobs of 48 nodes each
// (96k nodes busy at peak), submits staggered over ten minutes, runtimes
// spread 2000–4000 s so finishes don't all collide, and a growing usage
// trace that forces periodic memory updates (and hence lender-ledger churn)
// on every job. Everything is derived from the job index — no RNG — so the
// workload is trivially reproducible. With borrow set, every seventh job
// climbs to 80 GiB per node instead of 24 GiB, past its 64 GiB node.
func hundredKJobs(borrow bool) []*job.Job {
	prof := &slowdown.Profile{
		Name: "bench-stream", Nodes: 1, RuntimeSec: 3000, BandwidthGBs: 8,
		Sens: slowdown.CurveStream,
	}
	jobs := make([]*job.Job, 0, 2000)
	for i := 0; i < 2000; i++ {
		runtime := 2000 + float64(i%200)*10 // 2000..3990 s
		peakMB := int64(24 * 1024)
		if borrow && i%7 == 0 {
			peakMB = 80 * 1024
		}
		usage := memtrace.MustNew([]memtrace.Point{
			{T: 0, MB: 8 * 1024},
			{T: runtime * 0.7, MB: peakMB - 4*1024},
			{T: runtime, MB: peakMB},
		})
		jobs = append(jobs, &job.Job{
			ID:          i + 1,
			SubmitTime:  float64(i%600) + float64(i)*0.01, // staggered, few exact ties
			Nodes:       48,
			RequestMB:   peakMB + 2*1024,
			LimitSec:    runtime * 4,
			BaseRuntime: runtime,
			Usage:       usage,
			Profile:     prof,
		})
	}
	return jobs
}

// BenchmarkWhatIf is the copy-on-write branching headline: answering nine
// late what-if questions about one grizzly-scale week. "branched" simulates
// the shared prefix once (to 90 % of the week's makespan), forks eight
// variant overlays copy-on-write, and finishes base plus branches on the
// sweep pool; "full-runs" is the pre-CoW cost of the same answers — nine
// independent simulations from t=0. The CI speedup gate holds the ratio at
// ≥4×: each branch pays only its own suffix plus the shards it dirties, so
// the prefix — the bulk of the work — is paid once instead of nine times.
func BenchmarkWhatIf(b *testing.B) {
	gp := benchPreset()
	gp.GrizzlyNodes = 1490
	jobs, err := grizzlyWeekJobs(gp)
	if err != nil {
		b.Fatal(err)
	}
	gmc, err := experiments.MemConfigByPct(62)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gp.ConfigFor(gp.GrizzlyNodes, gmc, policy.Dynamic)

	// One full reference run fixes the branch point at 90 % of the week's
	// makespan — late-diverging, the regime prefix sharing exists for.
	ref, err := core.New(cfg, jobs)
	if err != nil {
		b.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		b.Fatal(err)
	}
	branchAt := 0.9 * refRes.Makespan

	variants := []experiments.BranchVariant{
		{Name: "noop"},
		{Name: "pol-static", Policy: "static"},
		{Name: "pol-baseline", Policy: "baseline"},
		{Name: "bf-none", Backfill: "none"},
		{Name: "bf-conservative", Backfill: "conservative"},
		{Name: "upd-fast", UpdateInterval: 100},
		{Name: "upd-slow", UpdateInterval: 400},
		{Name: "repack", Repack: true},
	}

	b.Run("branched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := core.New(cfg, jobs)
			if err != nil {
				b.Fatal(err)
			}
			base.Start()
			if err := base.StepUntil(branchAt); err != nil {
				b.Fatal(err)
			}
			_, runs, err := experiments.Branch(base, variants)
			if err != nil {
				b.Fatal(err)
			}
			if len(runs) != len(variants) {
				b.Fatalf("got %d branch runs, want %d", len(runs), len(variants))
			}
		}
	})

	b.Run("full-runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < 1+len(variants); k++ {
				s, err := core.New(cfg, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Ablation benches: the design-choice studies DESIGN.md calls out.

func BenchmarkAblationUpdateInterval(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationUpdateInterval(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOOM(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationOOM(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBackfill(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBackfill(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLender(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationLender(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPriority(b *testing.B) {
	p := benchPreset()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPriority(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration isolates the Fig. 3 pipeline. It bypasses the
// trace cache: the point is the generator's cost, not a map lookup. The
// shape library, mined once per process, is mined before the timer starts.
func BenchmarkTraceGeneration(b *testing.B) {
	p := benchPreset()
	if _, err := p.SyntheticTraceUncached(0.5, 0.6); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SyntheticTraceUncached(0.5, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrizzlyDataset generates the synthetic Grizzly dataset's
// skeleton that the grizzly-scale scenario samples its week from (Bench
// preset, 1490 nodes): every week and job, without usage traces.
func BenchmarkGrizzlyDataset(b *testing.B) {
	p := benchPreset()
	p.GrizzlyNodes = 1490
	for i := 0; i < b.N; i++ {
		p.GrizzlyDataset()
	}
}

// BenchmarkGrizzlyWeekBuild builds the usage traces of the week the
// grizzly-scale scenario simulates: each job's raw series drawn from its
// own substream and RDP-reduced, one task per job on the shared pool.
func BenchmarkGrizzlyWeekBuild(b *testing.B) {
	p := benchPreset()
	p.GrizzlyNodes = 1490
	week := p.PickWeeks(p.GrizzlyDataset())[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := *week
		w.Jobs = slices.Clone(week.Jobs)
		w.Build()
	}
}

// BenchmarkTraceCacheHit is the other side: the cost of re-requesting an
// already-generated trace, which is what every figure after the first pays.
func BenchmarkTraceCacheHit(b *testing.B) {
	p := benchPreset()
	if _, err := p.SyntheticTrace(0.5, 0.6); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SyntheticTrace(0.5, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}
