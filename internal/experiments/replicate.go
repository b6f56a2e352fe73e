package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"dismem/internal/sweep"
)

// Replication: quick-preset results are noisy, so headline metrics can be
// replicated across seeds and reported as mean ± standard deviation.

// Stat is a replicated scalar metric.
type Stat struct {
	Mean, Stdev float64
	N           int
}

func (s Stat) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.Stdev, s.N)
}

// ErrNoSamples is returned when every replication failed or none ran.
var ErrNoSamples = errors.New("experiments: no replication samples")

// Replicate evaluates metric under `seeds` different preset seeds in
// parallel and aggregates the outcomes. NaN results (infeasible scenarios)
// are skipped; if everything is NaN the error is ErrNoSamples.
func Replicate(p Preset, seeds int, metric func(Preset) (float64, error)) (Stat, error) {
	if seeds < 1 {
		seeds = 1
	}
	tasks := make([]sweep.Task[float64], seeds)
	for i := 0; i < seeds; i++ {
		q := p
		q.Seed = p.Seed + int64(i)*7919 // distinct, deterministic seeds
		tasks[i] = func() (float64, error) { return metric(q) }
	}
	values, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return Stat{}, err
	}
	var sum float64
	var kept []float64
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		kept = append(kept, v)
		sum += v
	}
	if len(kept) == 0 {
		return Stat{}, ErrNoSamples
	}
	mean := sum / float64(len(kept))
	var sq float64
	for _, v := range kept {
		sq += (v - mean) * (v - mean)
	}
	stdev := 0.0
	if len(kept) > 1 {
		stdev = math.Sqrt(sq / float64(len(kept)-1))
	}
	return Stat{Mean: mean, Stdev: stdev, N: len(kept)}, nil
}

// Headlines replicates the paper's four headline metrics across seeds.
type Headlines struct {
	Seeds              int
	ThroughputGainPts  Stat // max dynamic−static normalised throughput, Fig. 5 grid
	TPDGainFrac        Stat // max dynamic/static−1 throughput per dollar, Fig. 7
	MedianRespReduct   Stat // underprovisioned +60 % median response reduction, Fig. 6
	MemorySavingPoints Stat // static−dynamic minimum provisioning gap, Fig. 9
}

// RunHeadlines replicates all four headline metrics. The four replications
// are independent and run concurrently on the shared pool; within each,
// Replicate fans the seeds out too, and every (figure, seed) trace request
// dedupes through the tracegen cache — a replication seed generates its
// 50 %-mix trace once, not once per figure. Errors surface in the fixed
// metric order the serial code used.
func RunHeadlines(p Preset, seeds int) (*Headlines, error) {
	pool := sweep.SharedPool()
	throughput := sweep.Submit(pool, func() (Stat, error) {
		return Replicate(p, seeds, func(q Preset) (float64, error) {
			f5, err := RunFig5(q, false)
			if err != nil {
				return 0, err
			}
			return f5.DynamicAdvantage(), nil
		})
	})
	tpd := sweep.Submit(pool, func() (Stat, error) {
		return Replicate(p, seeds, func(q Preset) (float64, error) {
			f7, err := RunFig7(q)
			if err != nil {
				return 0, err
			}
			return f7.MaxDynamicGain(), nil
		})
	})
	resp := sweep.Submit(pool, func() (Stat, error) {
		return Replicate(p, seeds, func(q Preset) (float64, error) {
			f6, err := RunFig6(q)
			if err != nil {
				return 0, err
			}
			best := math.NaN()
			for _, panel := range f6.Panels {
				if panel.Overest > 0 && panel.Scenario == "underprovisioned" &&
					panel.Static != nil && panel.Dynamic != nil {
					r := panel.MedianReduction()
					if math.IsNaN(best) || r > best {
						best = r
					}
				}
			}
			return best, nil
		})
	})
	saving := sweep.Submit(pool, func() (Stat, error) {
		return Replicate(p, seeds, func(q Preset) (float64, error) {
			f9, err := RunFig9(q)
			if err != nil {
				return 0, err
			}
			return float64(f9.MaxMemorySaving()), nil
		})
	})

	out := &Headlines{Seeds: seeds}
	var err error
	if out.ThroughputGainPts, err = throughput.Get(); err != nil {
		return nil, err
	}
	if out.TPDGainFrac, err = tpd.Get(); err != nil {
		return nil, err
	}
	if out.MedianRespReduct, err = resp.Get(); err != nil {
		return nil, err
	}
	if out.MemorySavingPoints, err = saving.Get(); err != nil {
		return nil, err
	}
	return out, nil
}

func (h *Headlines) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline metrics over %d seeds (mean ± stdev)\n\n", h.Seeds)
	fmt.Fprintf(&b, "max throughput gain (dyn−static):     %s   (paper: up to 0.13)\n", h.ThroughputGainPts)
	fmt.Fprintf(&b, "max throughput-per-$ gain:            %s   (paper: up to 0.38)\n", h.TPDGainFrac)
	fmt.Fprintf(&b, "median response reduction (+60%%):     %s   (paper: 0.69)\n", h.MedianRespReduct)
	fmt.Fprintf(&b, "memory saving at 95%% (pct points):    %s   (paper: ~40)\n", h.MemorySavingPoints)
	return b.String()
}
