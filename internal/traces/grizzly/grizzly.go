// Package grizzly synthesises an LDMS-style memory-usage dataset with the
// structure of the LANL Grizzly release (LA-UR-19-28211) used by the paper:
// per-node memory samples every 10 seconds across a 1490-node, 128 GB/node
// system, grouped into one-week periods of varying CPU utilisation.
//
// The real dataset provides job IDs, node counts, durations and memory
// usage over time, but no scheduler information (submission times, memory
// requests); the paper adds those from the CIRNE model and an
// overestimation sweep — this package mirrors exactly that split. The
// synthetic generator is calibrated to the published marginals: 78 % mean
// CPU utilisation, the Table 2 "Grizzly" memory histogram, and ~18 % mean
// node-level memory utilisation.
package grizzly

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/slowdown"
	"dismem/internal/sweep"
	"dismem/internal/workload"
)

// Published system constants.
const (
	SystemNodes    = 1490
	NodeMemMB      = 128 * 1024
	SampleInterval = 10.0 // LDMS sampling period, seconds
	WeekSec        = 7 * 86400.0
)

// TraceJob is one job observed in the dataset: what LDMS can tell us,
// without scheduler-side fields. A dataset holds each job's skeleton (size,
// duration, peak and trace seed); its usage trace is built only for a week
// that is simulated (Week.Build, Week.BuildJobs).
type TraceJob struct {
	ID       int
	Nodes    int
	Duration float64
	Usage    *memtrace.Trace // per-node usage over the job's duration; nil until built

	peak int64 // per-node peak memory, MB: Usage.Peak() once built
	seed int64 // seeds the job's own usage-trace substream
}

// PeakMB returns the job's per-node peak memory, which is also the peak of
// its usage trace once that is built.
func (j *TraceJob) PeakMB() int64 { return j.peak }

// NodeHours returns size × duration in node-hours.
func (j *TraceJob) NodeHours() float64 { return float64(j.Nodes) * j.Duration / 3600 }

// Week is one one-week period of the dataset.
type Week struct {
	Index       int
	Utilization float64 // CPU utilisation: job node-hours over system node-hours
	Jobs        []TraceJob

	rdpEpsilonFrac float64 // Params.RDPEpsilonFrac, for building the traces
}

// MaxJobNodeHours returns the largest job node-hours in the week.
func (w *Week) MaxJobNodeHours() float64 {
	var m float64
	for i := range w.Jobs {
		if nh := w.Jobs[i].NodeHours(); nh > m {
			m = nh
		}
	}
	return m
}

// MaxJobMemMB returns the largest per-node peak memory in the week.
func (w *Week) MaxJobMemMB() int64 {
	var m int64
	for i := range w.Jobs {
		if p := w.Jobs[i].PeakMB(); p > m {
			m = p
		}
	}
	return m
}

// Dataset is the synthetic Grizzly release.
type Dataset struct {
	Nodes int
	Weeks []Week
}

// Params controls generation. Nodes may be scaled down for fast tests.
type Params struct {
	Nodes     int // default SystemNodes
	WeekCount int
	// MeanUtil / UtilSigma shape the per-week utilisation distribution
	// (defaults 0.70 / 0.18, matching Fig. 2's spread with a 78 % busy
	// mean in the high-utilisation region).
	MeanUtil  float64
	UtilSigma float64
	// RDPEpsilonFrac reduces each usage trace (fraction of peak,
	// default 0.02).
	RDPEpsilonFrac float64
}

func (p *Params) normalize() {
	if p.Nodes <= 0 {
		p.Nodes = SystemNodes
	}
	if p.WeekCount <= 0 {
		p.WeekCount = 26
	}
	if p.MeanUtil <= 0 {
		p.MeanUtil = 0.70
	}
	if p.UtilSigma <= 0 {
		p.UtilSigma = 0.18
	}
	if p.RDPEpsilonFrac <= 0 {
		p.RDPEpsilonFrac = 0.02
	}
}

// Generate synthesises the dataset's skeleton. Each week's utilisation and
// each job's size, duration, per-node peak and trace seed are drawn from rng
// in one serial stream; no usage trace is drawn. Table 2 and Figure 2 read
// only skeletons, and Week.Build and Week.BuildJobs build the traces of the
// weeks that are simulated.
func Generate(p Params, rng *rand.Rand) *Dataset {
	p.normalize()
	d := &Dataset{Nodes: p.Nodes, Weeks: make([]Week, p.WeekCount)}
	id := 1
	for w := range d.Weeks {
		util := p.MeanUtil + rng.NormFloat64()*p.UtilSigma
		if util < 0.2 {
			util = 0.2
		}
		if util > 0.95 {
			util = 0.95
		}
		week := &d.Weeks[w]
		*week = Week{Index: w, rdpEpsilonFrac: p.RDPEpsilonFrac}
		target := util * float64(p.Nodes) * WeekSec
		var accum float64
		for accum < target {
			tj := drawJob(rng, id, p.Nodes)
			id++
			week.Jobs = append(week.Jobs, tj)
			accum += float64(tj.Nodes) * tj.Duration
		}
		// The achieved utilisation: the last job overshoots the target.
		week.Utilization = accum / (float64(p.Nodes) * WeekSec)
	}
	return d
}

// drawJob draws one LDMS job's skeleton: CIRNE-like size and duration,
// Table 2 (Grizzly column) memory by size class, and the seed of its usage
// trace.
func drawJob(rng *rand.Rand, id, systemNodes int) TraceJob {
	nodes := sampleSize(rng)
	if nodes > systemNodes {
		nodes = systemNodes // a job cannot outsize the system it ran on
	}
	duration := sampleDuration(rng)
	var peak int64
	if nodes > 32 {
		peak = workload.GrizzlyLargeSize.SampleMB(rng)
	} else {
		peak = workload.GrizzlyNormalSize.SampleMB(rng)
	}
	if peak > NodeMemMB {
		peak = NodeMemMB
	}
	return TraceJob{ID: id, Nodes: nodes, Duration: duration, peak: peak, seed: rng.Int63()}
}

// Build builds the usage traces of w's jobs in place, unless w is built
// already. It writes the week, so it must finish before the week is shared.
func (w *Week) Build() {
	usage, err := w.usages()
	if err != nil {
		panic(err)
	}
	for i := range w.Jobs {
		w.Jobs[i].Usage = usage[i]
	}
}

// built reports whether w holds its jobs' usage traces. A week is built
// whole or not at all: a dataset's weeks hold skeletons, and Week.Build
// fills every job.
func (w *Week) built() bool { return len(w.Jobs) > 0 && w.Jobs[0].Usage != nil }

// usages returns each job's usage trace by job index: the ones a built
// week holds, or else all of them built afresh. Each trace is drawn from
// the job's own substream and reduced in one task on the shared pool, so
// the raw series lives only inside its task, and the traces are the same
// whatever the pool's size or order. usages only reads w.
func (w *Week) usages() ([]*memtrace.Trace, error) {
	if w.built() {
		out := make([]*memtrace.Trace, len(w.Jobs))
		for i := range w.Jobs {
			out[i] = w.Jobs[i].Usage
		}
		return out, nil
	}
	tasks := make([]sweep.Task[*memtrace.Trace], len(w.Jobs))
	for i := range w.Jobs {
		tj := &w.Jobs[i]
		tasks[i] = func() (*memtrace.Trace, error) { return tj.buildUsage(w.rdpEpsilonFrac), nil }
	}
	return sweep.Values(sweep.Run(tasks))
}

// buildUsage draws the job's raw LDMS series from its own substream and
// RDP-reduces it with a tolerance of epsFrac × its peak, keeping the peak
// sample. Every raw sample is at most the peak and the kept one equals it
// (ldmsTrace), so the reduced trace's Peak() is PeakMB() exactly.
func (j *TraceJob) buildUsage(epsFrac float64) *memtrace.Trace {
	raw, at := ldmsTrace(rand.New(rand.NewSource(j.seed)), j.peak, j.Duration)
	return raw.RDPKeep(epsFrac*float64(j.peak), at)
}

func sampleSize(rng *rand.Rand) int {
	if rng.Float64() < 0.3 {
		return 1
	}
	x := rng.NormFloat64()*1.7 + 2.2
	for x < 0 || x > 7 { // up to 128 nodes
		x = rng.NormFloat64()*1.7 + 2.2
	}
	n := int(math.Exp2(x) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

func sampleDuration(rng *rand.Rand) float64 {
	d := math.Exp(rng.NormFloat64()*1.4 + math.Log(3*3600))
	if d < 120 {
		d = 120
	}
	if d > WeekSec {
		d = WeekSec
	}
	return d
}

// ldmsTrace builds a raw 10-second-cadence usage series with an HPC phase
// structure (low mean, occasional peak phase) and returns it with the index
// of a sample that equals peak. No sample exceeds peak: the peak phase sits
// at it, and the walk outside it is clamped to it. The series is capped at
// 20k samples; longer jobs are sampled proportionally coarser, which RDP
// would do anyway.
func ldmsTrace(rng *rand.Rand, peak int64, duration float64) (*memtrace.Trace, int) {
	n := int(duration / SampleInterval)
	if n < 2 {
		n = 2
	}
	if n > 20000 {
		n = 20000
	}
	step := duration / float64(n)
	base := float64(peak) * (0.1 + 0.25*rng.Float64())
	peakStart := rng.Intn(n)
	peakLen := 1 + rng.Intn(n/4+1)
	pts := make([]memtrace.Point, n)
	level := base
	for i := 0; i < n; i++ {
		if i >= peakStart && i < peakStart+peakLen {
			level = float64(peak)
		} else {
			// Mean-reverting walk around the base level.
			level += (base - level) * 0.1
			level += base * 0.05 * rng.NormFloat64()
			if level < 1 {
				level = 1
			}
			if level > float64(peak) {
				level = float64(peak)
			}
		}
		pts[i] = memtrace.Point{T: float64(i) * step, MB: int64(level)}
	}
	pts[peakStart].MB = peak // the peak value is exact
	return memtrace.MustNew(pts), peakStart
}

// SampleWeeks implements the paper's Fig. 2 sampling: keep weeks with
// utilisation ≥ minUtil and randomly choose n of them.
func (d *Dataset) SampleWeeks(rng *rand.Rand, minUtil float64, n int) ([]*Week, error) {
	var eligible []*Week
	for i := range d.Weeks {
		if d.Weeks[i].Utilization >= minUtil {
			eligible = append(eligible, &d.Weeks[i])
		}
	}
	if len(eligible) == 0 {
		return nil, errors.New("grizzly: no weeks above the utilisation threshold")
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	if n > 0 && n < len(eligible) {
		eligible = eligible[:n]
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i].Index < eligible[j].Index })
	return eligible, nil
}

// BuildParams controls the augmentation of a week into simulator jobs:
// submission times from the CIRNE arrival process and memory requests from
// the overestimation factor, exactly as the paper does (§3.2.1).
type BuildParams struct {
	Overestimation float64
	Seed           int64
}

// limitPadding multiplies a job's duration into its wallclock request.
const limitPadding = 2

// BuildJobs converts a sampled week into simulator-ready jobs. It uses the
// usage traces the week holds and builds any missing one into the jobs it
// returns, never into the week, so any number of builds may share a week.
func (w *Week) BuildJobs(p BuildParams) ([]*job.Job, error) {
	usage, err := w.usages()
	if err != nil {
		return nil, err
	}
	matcher := slowdown.NewMatcher(nil)
	rng := rand.New(rand.NewSource(p.Seed))
	arr := workload.NewCirneParams(SystemNodes, 0.7, 7)
	jobs := make([]*job.Job, 0, len(w.Jobs))
	for i := range w.Jobs {
		tj := &w.Jobs[i]
		j := &job.Job{
			ID:          tj.ID,
			SubmitTime:  cirneArrival(rng, &arr),
			Nodes:       tj.Nodes,
			RequestMB:   workload.Overestimate(tj.PeakMB(), p.Overestimation),
			LimitSec:    tj.Duration * limitPadding,
			BaseRuntime: tj.Duration,
			Usage:       usage[i],
			Profile:     matcher.Match(tj.Nodes, tj.Duration),
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].SubmitTime < jobs[b].SubmitTime })
	return jobs, nil
}

// cirneArrival draws one diurnal-cycled arrival within the week.
func cirneArrival(rng *rand.Rand, p *workload.CirneParams) float64 {
	peak := 1 + p.DayAmplitude
	for {
		t := rng.Float64() * WeekSec
		hour := math.Mod(t/3600, 24)
		wgt := 1 + p.DayAmplitude*math.Cos(2*math.Pi*(hour-14)/24)
		if rng.Float64()*peak <= wgt {
			return t
		}
	}
}
