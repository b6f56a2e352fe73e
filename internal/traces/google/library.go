package google

import (
	"errors"
	"math"
	"math/rand"

	"dismem/internal/memtrace"
)

// ShapeLibrary is the paper's Step 6: a pool of per-job memory-usage
// shapes mined from the (synthetic) Google trace, matched to synthetic jobs
// by similarity and rescaled to the job's wallclock and peak. It implements
// workload.UsageSource.
type ShapeLibrary struct {
	shapes []shape
	// RDPEpsilonFrac is the RDP tolerance as a fraction of each shape's
	// peak (default 0.05), applied when traces are extracted.
	RDPEpsilonFrac float64
}

// shape is one mined usage shape. logPeak and logRuntime are log(peakMB+1)
// and log(runtime+1), the shape's side of the match distance, computed once
// when the library is built.
type shape struct {
	trace      *memtrace.Trace
	peakMB     int64
	runtime    float64
	logPeak    float64
	logRuntime float64
}

// newShape returns a shape with its side of the match distance computed.
func newShape(tr *memtrace.Trace, peakMB int64, runtime float64) shape {
	return shape{
		trace: tr, peakMB: peakMB, runtime: runtime,
		logPeak: math.Log(float64(peakMB) + 1), logRuntime: math.Log(runtime + 1),
	}
}

// ErrEmptyLibrary reports that filtering left no usable shapes.
var ErrEmptyLibrary = errors.New("google: no batch collections with usage data")

// NewShapeLibrary mines a dataset: batch-filters it, converts each
// collection's windows to a usage trace, and RDP-reduces the trace.
func NewShapeLibrary(d *Dataset, rdpEpsilonFrac float64) (*ShapeLibrary, error) {
	if rdpEpsilonFrac <= 0 {
		rdpEpsilonFrac = 0.05
	}
	lib := &ShapeLibrary{RDPEpsilonFrac: rdpEpsilonFrac}
	for _, c := range d.FilterBatch() {
		tr, err := c.UsageTrace()
		if err != nil {
			continue
		}
		peak := tr.Peak()
		if peak == 0 {
			continue
		}
		tr = tr.RDP(rdpEpsilonFrac * float64(peak))
		lib.shapes = append(lib.shapes, newShape(tr, peak, c.RuntimeSec))
	}
	if len(lib.shapes) == 0 {
		return nil, ErrEmptyLibrary
	}
	return lib, nil
}

// Len returns the number of shapes in the library.
func (l *ShapeLibrary) Len() int { return len(l.shapes) }

// TraceFor implements workload.UsageSource: pick the nearest shape by
// log-scaled (peak memory, runtime) Euclidean distance, stretch its time
// axis to the job's runtime, and rescale its values so the peak equals
// peakMB exactly.
func (l *ShapeLibrary) TraceFor(rng *rand.Rand, peakMB int64, runtime float64) *memtrace.Trace {
	best := 0
	bestD := math.Inf(1)
	// Randomised tie-breaking start avoids always reusing shape 0 for
	// equidistant candidates.
	offset := rng.Intn(len(l.shapes))
	logPeak, logRuntime := math.Log(float64(peakMB)+1), math.Log(runtime+1)
	for k := range l.shapes {
		i := (k + offset) % len(l.shapes)
		s := &l.shapes[i]
		dm := s.logPeak - logPeak
		dr := s.logRuntime - logRuntime
		d := dm*dm + dr*dr
		if d < bestD {
			bestD = d
			best = i
		}
	}
	s := &l.shapes[best]
	scaled, err := s.trace.Scale(runtime)
	if err != nil {
		// runtime > 0 is guaranteed by job validation; fall back to a
		// constant trace rather than corrupt the pipeline.
		return memtrace.Constant(peakMB)
	}
	return rescale(scaled, peakMB)
}

// rescale multiplies a trace's values so its peak becomes peakMB.
func rescale(tr *memtrace.Trace, peakMB int64) *memtrace.Trace {
	oldPeak := tr.Peak()
	if oldPeak == 0 {
		return memtrace.Constant(peakMB)
	}
	f := float64(peakMB) / float64(oldPeak)
	pts := tr.Points()
	out := make([]memtrace.Point, len(pts))
	reachedPeak := false
	for i, p := range pts {
		mb := int64(float64(p.MB) * f)
		if p.MB == oldPeak {
			mb = peakMB // exact, immune to rounding
			reachedPeak = true
		}
		out[i] = memtrace.Point{T: p.T, MB: mb}
	}
	if !reachedPeak && len(out) > 0 {
		out[0].MB = peakMB
	}
	return memtrace.MustNew(out)
}
