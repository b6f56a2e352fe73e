// Package memtrace represents a job's per-node memory consumption over time
// and the trace transformations the paper's methodology applies to it:
// Ramer–Douglas–Peucker reduction, fixed-window max/avg resampling (the
// Google-trace 5-minute windows), and time-axis scaling to the job's
// wallclock duration.
//
// A Trace is a piecewise-constant step function: between points i and i+1
// the usage is points[i].MB; after the last point it stays at the last MB
// value. Times are seconds from job start.
package memtrace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is one sample of the step function.
type Point struct {
	T  float64 // seconds since job start
	MB int64   // memory in use from T until the next point
}

// Trace is an immutable memory-usage time series.
type Trace struct {
	pts []Point
}

// Errors returned by trace constructors.
var (
	ErrEmpty     = errors.New("memtrace: empty trace")
	ErrUnsorted  = errors.New("memtrace: points not strictly increasing in time")
	ErrNegative  = errors.New("memtrace: negative or NaN time, or negative memory")
	ErrBadWindow = errors.New("memtrace: non-positive window or duration")
)

// New validates and wraps pts as a Trace. Points must be strictly increasing
// in time with non-negative times and memory values; a NaN time, which
// compares false both ways and would defeat the order check, is rejected
// with the negative ones. A slice with no spare capacity is not copied, and
// the caller must not modify it afterwards; one with spare capacity is
// copied into exact-size storage, so a trace never pins a larger array than
// its points need.
func New(pts []Point) (*Trace, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	for i, p := range pts {
		if !(p.T >= 0) || p.MB < 0 {
			return nil, fmt.Errorf("%w: point %d = %+v", ErrNegative, i, p)
		}
		if i > 0 && pts[i-1].T >= p.T {
			return nil, fmt.Errorf("%w: points %d..%d", ErrUnsorted, i-1, i)
		}
	}
	if cap(pts) > len(pts) {
		pts = append(make([]Point, 0, len(pts)), pts...)
	}
	return &Trace{pts: pts}, nil
}

// MustNew is New for statically known-good literals; it panics on error.
func MustNew(pts []Point) *Trace {
	tr, err := New(pts)
	if err != nil {
		panic(err)
	}
	return tr
}

// Constant returns a trace that uses mb from time 0 onward.
func Constant(mb int64) *Trace { return MustNew([]Point{{T: 0, MB: mb}}) }

// Points returns the underlying samples (read-only).
func (tr *Trace) Points() []Point { return tr.pts }

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.pts) }

// Duration returns the time of the last sample (the trace extends beyond it
// at the final value).
func (tr *Trace) Duration() float64 { return tr.pts[len(tr.pts)-1].T }

// At returns the usage at time t. Before the first sample it returns the
// first value (jobs allocate immediately); after the last, the last value.
func (tr *Trace) At(t float64) int64 {
	// Index of the last point with T <= t.
	i := sort.Search(len(tr.pts), func(i int) bool { return tr.pts[i].T > t }) - 1
	if i < 0 {
		i = 0
	}
	return tr.pts[i].MB
}

// MaxIn returns the maximum usage over the half-open interval [t0, t1).
// The paper's Decider provisions for the maximum usage in the period between
// the current progress and the next update.
func (tr *Trace) MaxIn(t0, t1 float64) int64 {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	max := tr.At(t0)
	// Points strictly inside the window can raise the maximum.
	i := sort.Search(len(tr.pts), func(i int) bool { return tr.pts[i].T > t0 })
	for ; i < len(tr.pts) && tr.pts[i].T < t1; i++ {
		if tr.pts[i].MB > max {
			max = tr.pts[i].MB
		}
	}
	return max
}

// Peak returns the maximum usage over the whole trace.
func (tr *Trace) Peak() int64 {
	var max int64
	for _, p := range tr.pts {
		if p.MB > max {
			max = p.MB
		}
	}
	return max
}

// MeanOver returns the time-weighted mean usage over [0, duration]. The tail
// after the last point counts at the final value.
func (tr *Trace) MeanOver(duration float64) (float64, error) {
	if duration <= 0 {
		return 0, ErrBadWindow
	}
	var area float64
	for i, p := range tr.pts {
		start := p.T
		if start >= duration {
			break
		}
		end := duration
		if i+1 < len(tr.pts) && tr.pts[i+1].T < end {
			end = tr.pts[i+1].T
		}
		area += float64(p.MB) * (end - start)
	}
	// Usage before the first sample equals the first value.
	if first := tr.pts[0].T; first > 0 {
		end := math.Min(first, duration)
		area += float64(tr.pts[0].MB) * end
	}
	return area / duration, nil
}

// Scale returns a copy whose time axis is stretched so the trace spans
// toDuration. The paper scales Google memory traces to the matched job's
// wallclock. A single-point trace is returned unchanged (it already spans
// any duration).
func (tr *Trace) Scale(toDuration float64) (*Trace, error) {
	if toDuration <= 0 {
		return nil, ErrBadWindow
	}
	if len(tr.pts) == 1 || tr.Duration() == 0 {
		return MustNew([]Point{{T: 0, MB: tr.pts[0].MB}}), nil
	}
	f := toDuration / tr.Duration()
	out := make([]Point, 0, len(tr.pts))
	for _, p := range tr.pts {
		out = append(out, Point{T: p.T * f, MB: p.MB})
	}
	// Floating-point stretching can collapse adjacent points; drop dupes.
	dedup := out[:1]
	for _, p := range out[1:] {
		if p.T > dedup[len(dedup)-1].T {
			dedup = append(dedup, p)
		}
	}
	return New(dedup)
}

// Resample returns per-window (max, avg) summaries over [0, duration] with
// the given window size, mimicking the Google trace's 5-minute records.
func (tr *Trace) Resample(window, duration float64) (maxs, avgs []int64, err error) {
	if window <= 0 || duration <= 0 {
		return nil, nil, ErrBadWindow
	}
	n := int(math.Ceil(duration / window))
	maxs = make([]int64, n)
	avgs = make([]int64, n)
	for w := 0; w < n; w++ {
		t0 := float64(w) * window
		t1 := math.Min(t0+window, duration)
		maxs[w] = tr.MaxIn(t0, t1)
		mean, merr := tr.meanIn(t0, t1)
		if merr != nil {
			return nil, nil, merr
		}
		avgs[w] = int64(mean + 0.5)
	}
	return maxs, avgs, nil
}

// MeanIn returns the time-weighted mean usage over [t0, t1].
func (tr *Trace) MeanIn(t0, t1 float64) (float64, error) { return tr.meanIn(t0, t1) }

func (tr *Trace) meanIn(t0, t1 float64) (float64, error) {
	if t1 <= t0 {
		return 0, ErrBadWindow
	}
	var area float64
	t := t0
	for t < t1 {
		v := tr.At(t)
		// Next breakpoint after t.
		i := sort.Search(len(tr.pts), func(i int) bool { return tr.pts[i].T > t })
		next := t1
		if i < len(tr.pts) && tr.pts[i].T < t1 {
			next = tr.pts[i].T
		}
		area += float64(v) * (next - t)
		t = next
	}
	return area / (t1 - t0), nil
}
