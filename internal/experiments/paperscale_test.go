//go:build paperscale

// The paper-scale memory guard builds the Full-preset Grizzly dataset,
// which takes tens of seconds and hundreds of MiB, and reads the process's
// live heap. It is kept out of the default test binary so it runs once, in
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
// Grizzly dataset (26 weeks at 1490 nodes, about 80k jobs). Reduced traces
// own exact-size storage, and the generator keeps at most a small window of
// raw series in flight while their reductions run on the pool, so the
// dataset measures about 466 MiB live. A reduced trace that pinned its raw
// series' array took the same dataset past 3 GiB; an unbounded in-flight
// window would pin every raw series until the end of generation. The test
// checks both the live heap once the dataset is built and the largest live
// heap any garbage collection marked while building it.
func TestFullGrizzlyDatasetHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the paper-scale Grizzly dataset")
	}
	const limitMiB = 600
	base := liveHeapAfterGC()
	stop := peakLiveHeap()
	d := Full().GrizzlyDataset()
	peak := stop()
	live := liveHeapAfterGC()
	jobs := 0
	for i := range d.Weeks {
		jobs += len(d.Weeks[i].Jobs)
	}
	runtime.KeepAlive(d)
	mib := func(b uint64) float64 {
		if b < base {
			return 0
		}
		return float64(b-base) / (1 << 20)
	}
	t.Logf("%d weeks, %d jobs: %.0f MiB live, %.0f MiB largest live heap during generation",
		len(d.Weeks), jobs, mib(live), mib(peak))
	if mib(live) > limitMiB {
		t.Errorf("dataset holds %.0f MiB live, want <= %d MiB", mib(live), limitMiB)
	}
	if mib(peak) > limitMiB {
		t.Errorf("generation held %.0f MiB live at a collection, want <= %d MiB", mib(peak), limitMiB)
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
