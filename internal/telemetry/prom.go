package telemetry

import (
	"fmt"
	"io"
	"strconv"
)

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// Counts[i] is the number of observations ≤ Bounds[i], with one implicit
// +Inf bucket at the end.
type Histogram struct {
	Bounds []int64 // ascending upper bounds
	Counts []uint64
	Inf    uint64
	Sum    int64
	N      uint64
}

// NewHistogram builds a histogram over the given ascending bounds.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds))}
}

// Observe files one value.
func (h *Histogram) Observe(v int64) {
	h.Sum += v
	h.N++
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Inf++
}

// WriteText emits the histogram in Prometheus text exposition format under
// the given metric name. Exported so servers composing their own /metrics
// pages (dmpd's request-latency histograms) reuse the exact formatting the
// run-level PromSink emits.
func (h *Histogram) WriteText(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += h.Inf
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.N); err != nil {
		return err
	}
	return nil
}

// PromSink accumulates run-level aggregates — event counters, lease-size
// and resize-delta histograms, pool gauges — and renders them in the
// Prometheus text exposition format, so a run's observability summary can
// be scraped, diffed, or dropped into any Prometheus-compatible tooling.
type PromSink struct {
	counts    [KindCount]uint64
	grantMB   *Histogram
	adjustMB  *Histogram // absolute resize deltas
	queue     *Histogram
	lastFree  int64
	lastLent  int64
	minFree   int64
	haveFree  bool
	samples   uint64
	oomEnds   uint64
	completed uint64
}

// NewPromSink returns an empty aggregate sink.
func NewPromSink() *PromSink {
	return &PromSink{
		grantMB:  NewHistogram([]int64{64, 256, 1024, 4096, 16384, 65536, 262144}),
		adjustMB: NewHistogram([]int64{64, 256, 1024, 4096, 16384, 65536, 262144}),
		queue:    NewHistogram([]int64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
	}
}

func (p *PromSink) Event(e *Event) error {
	p.counts[e.Kind]++
	switch e.Kind {
	case KindLeaseGrant:
		p.grantMB.Observe(e.MB)
	case KindLeaseAdjust:
		d := e.MB
		if d < 0 {
			d = -d
		}
		p.adjustMB.Observe(d)
	case KindJobEnd:
		switch e.Detail {
		case "completed":
			p.completed++
		case "oom-killed":
			// Logs written before the attempt/final split carried OOM kills
			// as job_end; keep counting them so old logs still aggregate.
			p.oomEnds++
		}
	case KindJobAttemptEnd:
		if e.Detail == "oom-killed" {
			p.oomEnds++
		}
	}
	return nil
}

func (p *PromSink) Sample(s *Sample) error {
	p.samples++
	p.lastFree = s.FreeMB
	p.lastLent = s.LentMB
	if !p.haveFree || s.FreeMB < p.minFree {
		p.minFree = s.FreeMB
		p.haveFree = true
	}
	p.queue.Observe(int64(s.Queue))
	return nil
}

func (p *PromSink) Close() error { return nil }

// WriteText renders the aggregates in Prometheus text exposition format.
func (p *PromSink) WriteText(w io.Writer) error {
	if _, err := io.WriteString(w, "# HELP dismem_events_total Simulation events emitted, per kind.\n# TYPE dismem_events_total counter\n"); err != nil {
		return err
	}
	for k := Kind(0); k < KindCount; k++ {
		if _, err := fmt.Fprintf(w, "dismem_events_total{kind=%s} %d\n", strconv.Quote(k.String()), p.counts[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE dismem_jobs_completed_total counter\ndismem_jobs_completed_total %d\n"+
			"# TYPE dismem_jobs_oom_killed_total counter\ndismem_jobs_oom_killed_total %d\n"+
			"# TYPE dismem_pool_samples_total counter\ndismem_pool_samples_total %d\n",
		p.completed, p.oomEnds, p.samples); err != nil {
		return err
	}
	if p.samples > 0 {
		if _, err := fmt.Fprintf(w,
			"# TYPE dismem_pool_free_mb gauge\ndismem_pool_free_mb %d\n"+
				"# TYPE dismem_pool_lent_mb gauge\ndismem_pool_lent_mb %d\n"+
				"# TYPE dismem_pool_min_free_mb gauge\ndismem_pool_min_free_mb %d\n",
			p.lastFree, p.lastLent, p.minFree); err != nil {
			return err
		}
	}
	if err := p.grantMB.WriteText(w, "dismem_lease_grant_mb"); err != nil {
		return err
	}
	if err := p.adjustMB.WriteText(w, "dismem_lease_adjust_abs_mb"); err != nil {
		return err
	}
	return p.queue.WriteText(w, "dismem_queue_depth")
}

var _ Sink = (*PromSink)(nil)
