//go:build paperscale

// The paper-scale memory guard builds the Full-preset Grizzly dataset and
// its sampled weeks' usage traces, which takes seconds and over a hundred
// MiB, and reads the process's live heap. It is kept out of the default test binary so it runs once, in
// a process of its own:
//
//	go test -tags paperscale -run '^TestFullGrizzlyDatasetHeap$' -v ./internal/experiments/

package experiments

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
)

// TestFullGrizzlyDatasetHeap bounds the memory of the paper-scale synthetic
// Grizzly data a walk holds: the dataset's skeleton (26 weeks at 1490
// nodes, about 80k jobs) and the seven sampled weeks with their usage
// traces built (Preset.SampledWeeks). Reduced traces own exact-size storage,
// and a raw series lives only inside the pool task that reduces it. A
// reduced trace that pinned its raw series' array took the whole dataset
// past 3 GiB, and a build that kept raw series until its end would hold
// every one of them. The test checks both the live heap once the weeks are
// built and the largest live heap any garbage collection marked while
// building them.
func TestFullGrizzlyDatasetHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the paper-scale Grizzly weeks")
	}
	const limitMiB = 215
	p := Full()
	base := liveHeapAfterGC()
	stop := peakLiveHeap()
	d := p.GrizzlyDataset()
	weeks := p.SampledWeeks(d)
	peak := stop()
	live := liveHeapAfterGC()
	jobs, built := 0, 0
	for i := range d.Weeks {
		jobs += len(d.Weeks[i].Jobs)
	}
	for i := range weeks {
		built += len(weeks[i].Jobs)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(weeks)
	mib := func(b uint64) float64 {
		if b < base {
			return 0
		}
		return float64(b-base) / (1 << 20)
	}
	t.Logf("%d weeks, %d jobs; %d weeks built, %d jobs: %.0f MiB live, %.0f MiB largest live heap during the build",
		len(d.Weeks), jobs, len(weeks), built, mib(live), mib(peak))
	if mib(live) > limitMiB {
		t.Errorf("dataset and built weeks hold %.0f MiB live, want <= %d MiB", mib(live), limitMiB)
	}
	if mib(peak) > limitMiB {
		t.Errorf("the build held %.0f MiB live at a collection, want <= %d MiB", mib(peak), limitMiB)
	}
}

func liveHeapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakLiveHeap records the live heap that each garbage collection marks,
// read from a finalizer that re-arms itself every cycle, until the returned
// function is called; that function returns the largest value seen.
func peakLiveHeap() (stop func() uint64) {
	var (
		mu      sync.Mutex
		peak    uint64
		stopped bool
	)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	type probe struct{ _ *int } // holds a pointer, so never tiny-allocated
	var arm func()
	arm = func() {
		runtime.SetFinalizer(&probe{}, func(*probe) {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return
			}
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			arm()
		})
	}
	arm()
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		return peak
	}
}
