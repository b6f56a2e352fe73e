package main

import (
	"fmt"
	"math/rand"
	"os"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/slowdown"
)

// fleetScale sizes the fleet-100k workload; tests shrink it.
type fleetScale struct {
	nodes, jobs, jobNodes, domains, setups int
}

// fleetFull is 2000 jobs of 48 nodes on 100,000 nodes in 64 pressure
// domains: ~96 % of the fleet busy once the submits are in.
var fleetFull = fleetScale{nodes: 100_000, jobs: 2000, jobNodes: 48, domains: 64, setups: 5}

// fleet simulates a seeded fleet-scale trace from a fresh core.New each
// operation. It bypasses trace generation and the global contention
// refresh, so it is the control for changes to either.
func fleet(r *run, sc fleetScale) error {
	cfg := core.Config{
		Cluster:  cluster.Config{Nodes: sc.nodes, Cores: 32, NormalMB: experiments.NormalNodeMB},
		Policy:   policy.Dynamic,
		Pressure: core.PressureDomains,
		Domains:  sc.domains,
		Seed:     r.seed,
	}
	var jobs []*job.Job
	setupS, err := r.setups(sc.setups, func() error {
		jobs = fleetJobs(r.seed, sc)
		_, err := simulate(cfg, jobs, false) // discarded warm-up operation
		return err
	})
	if err != nil {
		return err
	}
	points := usagePoints(jobs)
	fmt.Fprintf(os.Stderr, "fleet-100k: %d nodes, %d jobs, %d domains, set-up %.2fs\n",
		sc.nodes, len(jobs), sc.domains, setupS)

	var st simStats
	n, elapsed, err := r.simLoop(cfg, jobs, &st)
	if err != nil {
		return err
	}
	st.report(r, n, elapsed)
	if r.trace {
		r.set("memtrace.points", float64(points), "count")
	} else {
		r.e2e.LiveMB = append(r.e2e.LiveMB, liveMB())
	}
	keep(jobs, &st)
	return nil
}

// fleetJobs draws the fleet trace from seed: submits spread over the first
// 20 minutes and runtimes of 2000–4000 s. Per-node usage climbs in 120 s
// steps from 6–10 GiB to a plateau and drops to half of it for the last
// tenth of the run, so every job grows (and finally shrinks) through Adjust
// at its memory updates. The plateau is 20–28 GiB, except for one job in
// seven whose 72–88 GiB outgrows a 64 GiB node and borrows remote memory.
// Profiles come from the default application pool.
func fleetJobs(seed int64, sc fleetScale) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	m := slowdown.NewMatcher(nil)
	const gib = 1024
	jobs := make([]*job.Job, 0, sc.jobs)
	for i := 0; i < sc.jobs; i++ {
		runtime := 2000 + 2000*rng.Float64()
		start := (6 + 4*rng.Float64()) * gib
		peak := (20 + 8*rng.Float64()) * gib
		if rng.Intn(7) == 0 {
			peak = (72 + 16*rng.Float64()) * gib
		}
		rampEnd := runtime * (0.6 + 0.2*rng.Float64())
		var pts []memtrace.Point
		steps := int(rampEnd / 120)
		for k := 0; k <= steps; k++ {
			pts = append(pts, memtrace.Point{T: float64(k) * 120, MB: int64(start + (peak-start)*float64(k)/float64(steps))})
		}
		pts = append(pts, memtrace.Point{T: 0.9 * runtime, MB: int64(peak / 2)})
		jobs = append(jobs, &job.Job{
			ID:          i + 1,
			SubmitTime:  1200 * rng.Float64(),
			Nodes:       sc.jobNodes,
			RequestMB:   int64(peak) + 4*gib,
			LimitSec:    4 * runtime,
			BaseRuntime: runtime,
			Usage:       memtrace.MustNew(pts),
			Profile:     m.Match(sc.jobNodes, runtime),
		})
	}
	return jobs
}
