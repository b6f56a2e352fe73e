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
	values, err := replicate(p, seeds, metric)
	if err != nil {
		return Stat{}, err
	}
	return statOf(values)
}

// replicate runs one task per seed in parallel and returns the results in
// seed order.
func replicate[T any](p Preset, seeds int, run func(Preset) (T, error)) ([]T, error) {
	if seeds < 1 {
		seeds = 1
	}
	tasks := make([]sweep.Task[T], seeds)
	for i := range tasks {
		q := p
		q.Seed = p.Seed + int64(i)*7919 // distinct, deterministic seeds
		tasks[i] = func() (T, error) { return run(q) }
	}
	return sweep.Values(sweep.Run(tasks))
}

// statOf aggregates the values that are not NaN.
func statOf(values []float64) (Stat, error) {
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

// headlineValues are the paper's four headline claims as one walk reads
// them off its Figures 5, 6, 7 and 9.
type headlineValues struct {
	ThroughputGain   float64 // Fig5.DynamicAdvantage (synthetic panels)
	TPDGain          float64 // Fig7.MaxDynamicGain
	MedianRespReduct float64 // Fig6.MaxUnderprovisionedReduction; NaN if no panel ran both policies
	MemorySaving     int     // Fig9.MaxMemorySaving, percentage points
}

func (h headlineValues) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "max throughput gain (dynamic - static):          %+.1f%%  (paper: up to 8%% at +0%%, 13%% at +60%%)\n", h.ThroughputGain*100)
	fmt.Fprintf(&b, "max throughput-per-dollar gain (dynamic/static): %+.1f%%  (paper: up to 38%%)\n", h.TPDGain*100)
	fmt.Fprintf(&b, "median response-time reduction (underprov +60%%): %.0f%%  (paper: 69%%)\n", h.MedianRespReduct*100)
	fmt.Fprintf(&b, "max memory saving at 95%% throughput:             %d pts (paper: ~40%%)\n", h.MemorySaving)
	return b.String()
}

// Headlines replicates the paper's four headline metrics across seeds.
type Headlines struct {
	Seeds              int
	ThroughputGainPts  Stat // max dynamic−static normalised throughput, Fig. 5 synthetic panels
	TPDGainFrac        Stat // max dynamic/static−1 throughput per dollar, Fig. 7
	MedianRespReduct   Stat // underprovisioned +60 % median response reduction, Fig. 6
	MemorySavingPoints Stat // static−dynamic minimum provisioning gap, Fig. 9
}

// RunHeadlines replicates all four headline metrics. Each seed runs the
// headline stage alone, as dmpexp -exp headlines does, with the seeds in
// parallel on the shared pool; every (figure, seed) trace request dedupes
// through the tracegen cache. Each metric is aggregated over the seeds
// where it is defined.
func RunHeadlines(p Preset, seeds int) (*Headlines, error) {
	values, err := replicate(p, seeds, func(q Preset) (headlineValues, error) {
		return headlines(newCells(q))
	})
	if err != nil {
		return nil, err
	}
	out := &Headlines{Seeds: seeds}
	for _, m := range []struct {
		stat *Stat
		of   func(headlineValues) float64
	}{
		{&out.ThroughputGainPts, func(h headlineValues) float64 { return h.ThroughputGain }},
		{&out.TPDGainFrac, func(h headlineValues) float64 { return h.TPDGain }},
		{&out.MedianRespReduct, func(h headlineValues) float64 { return h.MedianRespReduct }},
		{&out.MemorySavingPoints, func(h headlineValues) float64 { return float64(h.MemorySaving) }},
	} {
		xs := make([]float64, len(values))
		for i, h := range values {
			xs[i] = m.of(h)
		}
		if *m.stat, err = statOf(xs); err != nil {
			return nil, err
		}
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
