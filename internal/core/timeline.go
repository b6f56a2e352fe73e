package core

import (
	"encoding/csv"
	"io"
	"strconv"

	"dismem/internal/job"
)

// TimelineSample is one snapshot of system state, taken after a lifecycle
// event.
type TimelineSample struct {
	T         float64
	AllocMB   int64 // memory held by running jobs
	BusyNodes int
	Queued    int // pending jobs
	Running   int
}

// Timeline is an Observer that reconstructs the system's occupancy over
// time from lifecycle events: allocated memory, busy nodes, queue depth.
// Append-only; read Samples after the run.
type Timeline struct {
	Samples []TimelineSample

	alloc   int64
	busy    int
	queued  map[int]bool // IDs of the jobs waiting in the queue
	running map[int]jobFootprint
}

type jobFootprint struct {
	allocMB int64
	nodes   int
}

// NewTimeline returns an empty recorder.
func NewTimeline() *Timeline {
	return &Timeline{queued: make(map[int]bool), running: make(map[int]jobFootprint)}
}

func (tl *Timeline) snap(t float64) {
	tl.Samples = append(tl.Samples, TimelineSample{
		T:         t,
		AllocMB:   tl.alloc,
		BusyNodes: tl.busy,
		Queued:    len(tl.queued),
		Running:   len(tl.running),
	})
}

// JobSubmitted implements Observer.
func (tl *Timeline) JobSubmitted(t float64, j *job.Job, _ bool) {
	tl.queued[j.ID] = true
	tl.snap(t)
}

// JobStarted implements Observer.
func (tl *Timeline) JobStarted(t float64, j *job.Job, localMB, remoteMB int64) {
	delete(tl.queued, j.ID)
	total := localMB + remoteMB
	tl.running[j.ID] = jobFootprint{allocMB: total, nodes: j.Nodes}
	tl.alloc += total
	tl.busy += j.Nodes
	tl.snap(t)
}

// JobFinished implements Observer. A job abandoned while queued (its
// predecessor failed) leaves the queue; one abandoned after an OOM kill
// already released its footprint, so the removal is guarded.
func (tl *Timeline) JobFinished(t float64, j *job.Job, _ Outcome) {
	delete(tl.queued, j.ID)
	tl.remove(j.ID)
	tl.snap(t)
}

// JobKilledOOM implements Observer.
func (tl *Timeline) JobKilledOOM(t float64, j *job.Job, _ int) {
	tl.remove(j.ID)
	tl.snap(t)
}

func (tl *Timeline) remove(id int) {
	fp, ok := tl.running[id]
	if !ok {
		return
	}
	tl.alloc -= fp.allocMB
	tl.busy -= fp.nodes
	delete(tl.running, id)
}

// AllocationChanged implements Observer.
func (tl *Timeline) AllocationChanged(t float64, j *job.Job, before, after int64) {
	fp, ok := tl.running[j.ID]
	if !ok {
		return
	}
	fp.allocMB += after - before
	tl.running[j.ID] = fp
	tl.alloc += after - before
	tl.snap(t)
}

// PeakQueued returns the deepest queue observed.
func (tl *Timeline) PeakQueued() int {
	m := 0
	for _, s := range tl.Samples {
		if s.Queued > m {
			m = s.Queued
		}
	}
	return m
}

// WriteCSV emits t,alloc_mb,busy_nodes,queued,running rows.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "alloc_mb", "busy_nodes", "queued", "running"}); err != nil {
		return err
	}
	for _, s := range tl.Samples {
		rec := []string{
			strconv.FormatFloat(s.T, 'f', 1, 64),
			strconv.FormatInt(s.AllocMB, 10),
			strconv.Itoa(s.BusyNodes),
			strconv.Itoa(s.Queued),
			strconv.Itoa(s.Running),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

var _ Observer = (*Timeline)(nil)
