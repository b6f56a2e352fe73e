package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// A stage's cost to the process, beside its wall time: the CPU seconds it
// used and the largest heap the garbage collector found live while it ran.
// Both figures come from runtime/metrics, which refreshes them only at the
// end of a GC cycle, so the meter ends every stage with a collection: the
// CPU figure is then exact at each stage boundary, and the next stage
// starts from the heap the last one left live. That collection is charged
// to the stage that made the garbage. The figures describe the command's
// run, never a simulation result.

// stageCost is one row of the stage cost table.
type stageCost struct {
	name   string
	wall   time.Duration
	cpu    float64 // CPU seconds: the runtime's busy time over every P
	peakMB float64 // peak live heap, MiB
}

// costMeter measures stages one after another. A sampler goroutine keeps
// the running maximum of the live heap, since the runtime reports only the
// latest cycle's value.
type costMeter struct {
	mu   sync.Mutex
	peak uint64 // guarded by mu

	stop chan struct{}
	done chan struct{}

	start time.Time
	last  costSample // taken at the end of the previous stage
}

// costSample is one reading of the process-wide counters.
type costSample struct {
	cpu  float64 // CPU seconds used so far
	live uint64  // heap live at the end of the last GC cycle, bytes
}

// samplePeriod is how often the sampler reads the live heap: shorter than
// a GC cycle of the paper-scale stages, so no cycle's value is missed.
const samplePeriod = 20 * time.Millisecond

func startCostMeter() *costMeter {
	m := &costMeter{stop: make(chan struct{}), done: make(chan struct{}), last: collect()}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				metrics.Read(s)
				m.observe(s[0].Value.Uint64())
			}
		}
	}()
	return m
}

// collect runs a garbage collection, which brings the runtime's CPU
// figures up to date, and reads them.
func collect() costSample {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return costSample{cpu: s[0].Value.Float64() - s[1].Value.Float64(), live: s[2].Value.Uint64()}
}

// observe lifts the recorded peak to live if it is higher.
func (m *costMeter) observe(live uint64) {
	m.mu.Lock()
	m.peak = max(m.peak, live)
	m.mu.Unlock()
}

// begin starts measuring a stage from the heap the previous one left.
func (m *costMeter) begin() {
	m.mu.Lock()
	m.peak = m.last.live
	m.mu.Unlock()
	m.start = time.Now()
}

// end finishes the stage begun last and returns its cost.
func (m *costMeter) end(name string) stageCost {
	now := collect()
	wall := time.Since(m.start)
	m.observe(now.live)
	m.mu.Lock()
	peak := m.peak
	m.mu.Unlock()
	c := stageCost{name: name, wall: wall, cpu: now.cpu - m.last.cpu, peakMB: float64(peak) / (1 << 20)}
	m.last = now
	return c
}

// close stops the sampler.
func (m *costMeter) close() {
	close(m.stop)
	<-m.done
}

// String is the cost as the stage header prints it.
func (c stageCost) String() string {
	return fmt.Sprintf("%.1fs, %.1f CPU-s, %.0f MiB peak live", c.wall.Seconds(), c.cpu, c.peakMB)
}

// writeCostTable prints one row per stage and a total row (the sum of the
// times, and the largest peak).
func writeCostTable(w io.Writer, preset string, rows []stageCost) {
	fmt.Fprintf(w, "=== stage cost (preset %s) ===\n", preset)
	fmt.Fprintf(w, "%-12s %9s %9s %14s\n", "stage", "wall_s", "cpu_s", "peak_live_mib")
	var total stageCost
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %9.1f %9.1f %14.0f\n", r.name, r.wall.Seconds(), r.cpu, r.peakMB)
		total.wall += r.wall
		total.cpu += r.cpu
		total.peakMB = max(total.peakMB, r.peakMB)
	}
	fmt.Fprintf(w, "%-12s %9.1f %9.1f %14.0f\n\n", "total", total.wall.Seconds(), total.cpu, total.peakMB)
}
