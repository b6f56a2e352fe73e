package workload

import (
	"errors"
	"math/rand"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/slowdown"
)

// UsageSource supplies per-node memory-usage traces for generated jobs.
// The Google-trace package implements it with Borg-like shapes; the default
// PhasedUsage source below is self-contained.
type UsageSource interface {
	// TraceFor returns a usage trace spanning runtime seconds whose peak
	// equals peakMB.
	TraceFor(rng *rand.Rand, peakMB int64, runtime float64) *memtrace.Trace
}

// BuildParams controls Spec → Job conversion (paper Fig. 3, Steps 2–6).
type BuildParams struct {
	// LargeFrac is the scenario's fraction of large-memory jobs
	// (the paper's "Jobs Large X%" axis).
	LargeFrac float64
	// Overestimation inflates the request above the true peak
	// (the paper sweeps +0 % … +100 %).
	Overestimation float64
	// NormalNodeMB is the normal node capacity that separates normal-
	// from large-memory jobs.
	NormalNodeMB int64
	Source       UsageSource
	Seed         int64
}

// ErrNoSource reports a missing usage source.
var ErrNoSource = errors.New("workload: nil usage source")

// BuildJobs attaches memory demands, usage traces and application profiles
// to generated specs, yielding simulator-ready jobs. Large-memory jobs are
// drawn with probability LargeFrac from the paper's large-memory
// distribution (Table 3), others from the normal one.
func BuildJobs(specs []Spec, p BuildParams) ([]*job.Job, error) {
	if p.Source == nil {
		return nil, ErrNoSource
	}
	if p.NormalNodeMB <= 0 {
		p.NormalNodeMB = 64 * 1024
	}
	matcher := slowdown.NewMatcher(nil)
	rng := rand.New(rand.NewSource(p.Seed))
	normal := NormalMemorySampler()
	large := LargeMemorySampler()

	jobs := make([]*job.Job, 0, len(specs))
	for i, sp := range specs {
		var peak int64
		if rng.Float64() < p.LargeFrac {
			peak = int64(large.Sample(rng))
		} else {
			peak = int64(normal.Sample(rng))
			if peak > p.NormalNodeMB {
				peak = p.NormalNodeMB
			}
		}
		usage := p.Source.TraceFor(rng, peak, sp.Runtime)
		j := &job.Job{
			ID:          i + 1,
			SubmitTime:  sp.Submit,
			Nodes:       sp.Nodes,
			RequestMB:   Overestimate(peak, p.Overestimation),
			LimitSec:    sp.Limit,
			BaseRuntime: sp.Runtime,
			Usage:       usage,
			Profile:     matcher.Match(sp.Nodes, sp.Runtime),
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// PhasedUsage is the built-in usage source: an HPC-like phase structure
// with a ramp-up, a few plateaus of differing heights (one of which touches
// the peak), and a tail. Mean usage lands well below the peak, matching the
// paper's observation that average use is much lower than maximum use.
type PhasedUsage struct {
	// MeanFrac is the approximate ratio of plateau height to peak for
	// non-peak phases (default 0.4).
	MeanFrac float64
	// Phases is the number of plateaus (default 4).
	Phases int
}

// TraceFor implements UsageSource.
func (s PhasedUsage) TraceFor(rng *rand.Rand, peakMB int64, runtime float64) *memtrace.Trace {
	mean := s.MeanFrac
	if mean <= 0 || mean >= 1 {
		mean = 0.4
	}
	phases := s.Phases
	if phases < 2 {
		phases = 4
	}
	peakPhase := rng.Intn(phases)
	pts := make([]memtrace.Point, 0, phases)
	for i := 0; i < phases; i++ {
		at := runtime * float64(i) / float64(phases)
		var mb int64
		if i == peakPhase {
			mb = peakMB
		} else {
			f := mean * (0.5 + rng.Float64()) // 0.5–1.5× the mean fraction
			if f > 0.95 {
				f = 0.95
			}
			mb = int64(f * float64(peakMB))
			if mb < 1 {
				mb = 1
			}
		}
		pts = append(pts, memtrace.Point{T: at, MB: mb})
	}
	return memtrace.MustNew(pts)
}
