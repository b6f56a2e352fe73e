package google

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dismem/internal/memtrace"
)

// traceForRef is TraceFor as first written: four logarithms for every
// (job, shape) pair. TraceFor must pick the same shape from the same
// random draw.
func (l *ShapeLibrary) traceForRef(rng *rand.Rand, peakMB int64, runtime float64) *memtrace.Trace {
	best := 0
	bestD := math.Inf(1)
	offset := rng.Intn(len(l.shapes))
	for k := range l.shapes {
		i := (k + offset) % len(l.shapes)
		s := &l.shapes[i]
		dm := math.Log(float64(s.peakMB)+1) - math.Log(float64(peakMB)+1)
		dr := math.Log(s.runtime+1) - math.Log(runtime+1)
		d := dm*dm + dr*dr
		if d < bestD {
			bestD = d
			best = i
		}
	}
	s := &l.shapes[best]
	scaled, err := s.trace.Scale(runtime)
	if err != nil {
		return memtrace.Constant(peakMB)
	}
	return rescale(scaled, peakMB)
}

// randomLibrary draws n shapes whose traces differ in the time of their
// middle point, so the rescaled trace tells which shape was picked. Peaks
// and runtimes come from small pools, so many shapes share a (peak,
// runtime) pair and many jobs tie at distance zero.
func randomLibrary(rng *rand.Rand, n int, peaks []int64, runtimes []float64) *ShapeLibrary {
	lib := &ShapeLibrary{}
	for k := 0; k < n; k++ {
		tr := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 100}, {T: float64(k + 1), MB: 60}, {T: float64(n + 1), MB: 30}})
		lib.shapes = append(lib.shapes, newShape(tr, peaks[rng.Intn(len(peaks))], runtimes[rng.Intn(len(runtimes))]))
	}
	return lib
}

// TestTraceForMatchesReference checks that precomputing the logarithms
// changes nothing: for random libraries (duplicate shapes included) and
// jobs, TraceFor and the four-log reference return equal points and leave
// the rng in the same state.
func TestTraceForMatchesReference(t *testing.T) {
	peaks := []int64{0, 1, 7, 512, 4096, 65536, 1 << 40}
	runtimes := []float64{1e-9, 0.5, 60, 3600, 86400, 1e7}
	check := func(lib *ShapeLibrary, seed int64, peakMB int64, runtime float64) {
		t.Helper()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := lib.TraceFor(a, peakMB, runtime), lib.traceForRef(b, peakMB, runtime)
		if !slices.Equal(got.Points(), want.Points()) {
			t.Fatalf("seed %d, job (%d MB, %g s): TraceFor %v, reference %v", seed, peakMB, runtime, got.Points(), want.Points())
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seed %d, job (%d MB, %g s): rng diverged", seed, peakMB, runtime)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lib := randomLibrary(rng, 1+rng.Intn(40), peaks[:1+rng.Intn(len(peaks))], runtimes[:1+rng.Intn(len(runtimes))])
		for j := 0; j < 20; j++ {
			peak, runtime := peaks[rng.Intn(len(peaks))], runtimes[rng.Intn(len(runtimes))]
			if rng.Intn(2) == 0 {
				peak, runtime = rng.Int63n(1<<20), rng.ExpFloat64()*3600
			}
			check(lib, seed*100+int64(j), peak, runtime)
		}
	}
	lib, err := NewShapeLibrary(Generate(rand.New(rand.NewSource(3)), 1500), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for j := 0; j < 200; j++ {
		check(lib, int64(j), 1+rng.Int63n(256<<10), 1+rng.ExpFloat64()*7200)
	}
}
