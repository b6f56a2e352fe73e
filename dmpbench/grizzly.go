package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/traces/grizzly"
)

// grizzlyScale sizes the grizzly-week workload; tests shrink it.
type grizzlyScale struct {
	nodes, weeks, setups int
}

// grizzlyFull is the paper's headline configuration: the synthetic Grizzly
// dataset at 1490 nodes (the Bench preset's three weeks), one sampled week
// simulated under the dynamic policy at 62 % memory.
var grizzlyFull = grizzlyScale{nodes: 1490, setups: 3}

// grizzlyWeek generates the dataset and builds the week's jobs in set-up,
// then simulates the week repeatedly. Week sampling and job building mirror
// Preset.GrizzlyTraces (same seed offsets, overestimation 0.5 as the
// grizzly-scale Go benchmark), split so generation and building are timed
// apart.
//
// The dataset is the preset's fixed release, as the paper works from one
// Grizzly dataset; --seed re-draws the sampled week's arrival process. A
// seed-drawn dataset would change the week's size by ±10 % (3474–4182 jobs
// over seeds 1–5), which swamps the run-to-run comparison this workload is
// for. Seed 1 reproduces the grizzly-scale Go benchmark's trace exactly.
func grizzlyWeek(r *run, sc grizzlyScale) error {
	p := experiments.Bench()
	p.GrizzlyNodes = sc.nodes
	if sc.weeks > 0 {
		p.GrizzlyWeeks = sc.weeks
	}
	arrivals := p.Seed + 3000 + (r.seed-1)*7919
	mc, err := experiments.MemConfigByPct(62)
	if err != nil {
		return err
	}
	cfg := p.ConfigFor(p.GrizzlyNodes, mc, policy.Dynamic)

	var jobs []*job.Job
	var genS, buildS []float64
	setupS, err := r.setups(sc.setups, func() error {
		t0 := time.Now()
		d := p.GrizzlyDataset()
		t1 := time.Now()
		w, err := sampleWeek(d, p.Seed)
		if err != nil {
			return err
		}
		jobs, err = w.BuildJobs(grizzly.BuildParams{Overestimation: 0.5, Seed: arrivals + int64(w.Index)})
		if err != nil {
			return err
		}
		t2 := time.Now()
		genS = append(genS, t1.Sub(t0).Seconds())
		buildS = append(buildS, t2.Sub(t1).Seconds())
		_, err = simulate(cfg, jobs, false) // discarded warm-up operation
		return err
	})
	if err != nil {
		return err
	}
	points := usagePoints(jobs)
	fmt.Fprintf(os.Stderr, "grizzly-week: %d nodes, %d jobs, %d usage points, set-up %.2fs\n",
		p.GrizzlyNodes, len(jobs), points, setupS)

	var st simStats
	n, elapsed, err := r.simLoop(cfg, jobs, &st)
	if err != nil {
		return err
	}
	st.report(r, n, elapsed)
	if r.trace {
		r.set("grizzly.generate_s", median(genS), "s")
		r.set("grizzly.build_s", median(buildS), "s")
		r.set("memtrace.points", float64(points), "count")
	} else {
		r.e2e.LiveMB = append(r.e2e.LiveMB, liveMB())
	}
	keep(jobs, &st)
	return nil
}

// sampleWeek picks the week Preset.GrizzlyTraces would: one random week of
// at least 70 % utilisation, or the busiest week when none qualifies.
func sampleWeek(d *grizzly.Dataset, seed int64) (*grizzly.Week, error) {
	weeks, err := d.SampleWeeks(rand.New(rand.NewSource(seed+2000)), 0.7, 1)
	if err == nil {
		return weeks[0], nil
	}
	if len(d.Weeks) == 0 {
		return nil, err
	}
	best := &d.Weeks[0]
	for i := range d.Weeks {
		if d.Weeks[i].Utilization > best.Utilization {
			best = &d.Weeks[i]
		}
	}
	return best, nil
}
