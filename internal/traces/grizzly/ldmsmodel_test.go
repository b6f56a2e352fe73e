package grizzly

import (
	"errors"
	"fmt"
	"sort"

	"dismem/internal/memtrace"
)

// This file models the raw layer of the Grizzly release: LDMS samples one
// record per node every 10 seconds, carrying the job occupying the node and
// its memory state. The paper's methodology (§3.1.1) *deduces* jobs from
// these records — a job's node count and duration come from grouping
// records by job ID. EmitRecords produces such a stream from a placed week
// and ReconstructJobs performs the paper's deduction, so the tests exercise
// the full records → jobs path end to end. No program runs it: the
// simulator reads the generated jobs directly.

// Record is one LDMS sample.
type Record struct {
	TimeSec  float64
	Node     int
	JobID    int   // 0 when the node is idle
	ActiveMB int64 // memory actively used by the job on this node
	FreeMB   int64
}

// PlacedJob is a trace job with a concrete start time and node set within
// its week.
type PlacedJob struct {
	Job   *TraceJob
	Start float64
	Nodes []int
}

// End returns the job's completion time.
func (p *PlacedJob) End() float64 { return p.Start + p.Job.Duration }

// ErrTooFewNodes reports a week whose largest job exceeds the node count.
var ErrTooFewNodes = errors.New("grizzly: job larger than the system")

// Place assigns every job of the week a start time and node set using an
// earliest-free first-fit, the simplest layout consistent with the week's
// utilisation. Node IDs are 0-based and < nodes.
func (w *Week) Place(nodes int) ([]PlacedJob, error) {
	freeAt := make([]float64, nodes)
	placed := make([]PlacedJob, 0, len(w.Jobs))
	order := make([]*TraceJob, len(w.Jobs))
	for i := range w.Jobs {
		order[i] = &w.Jobs[i]
	}
	// Longest-first packing keeps the makespan near the week length.
	sort.Slice(order, func(a, b int) bool {
		if order[a].Duration != order[b].Duration {
			return order[a].Duration > order[b].Duration
		}
		return order[a].ID < order[b].ID
	})
	type nodeFree struct {
		id int
		at float64
	}
	for _, tj := range order {
		if tj.Nodes > nodes {
			return nil, fmt.Errorf("%w: job %d needs %d of %d nodes", ErrTooFewNodes, tj.ID, tj.Nodes, nodes)
		}
		nf := make([]nodeFree, nodes)
		for i := range freeAt {
			nf[i] = nodeFree{id: i, at: freeAt[i]}
		}
		sort.Slice(nf, func(a, b int) bool {
			if nf[a].at != nf[b].at {
				return nf[a].at < nf[b].at
			}
			return nf[a].id < nf[b].id
		})
		chosen := nf[:tj.Nodes]
		start := 0.0
		for _, c := range chosen {
			if c.at > start {
				start = c.at
			}
		}
		ids := make([]int, 0, tj.Nodes)
		for _, c := range chosen {
			ids = append(ids, c.id)
			freeAt[c.id] = start + tj.Duration
		}
		sort.Ints(ids)
		placed = append(placed, PlacedJob{Job: tj, Start: start, Nodes: ids})
	}
	sort.Slice(placed, func(a, b int) bool { return placed[a].Job.ID < placed[b].Job.ID })
	return placed, nil
}

// EmitRecords streams LDMS samples for the placement at the given sampling
// interval over [0, horizon). Idle nodes emit JobID 0 with full free
// memory. Records arrive in (time, node) order. The emit callback may stop
// the stream by returning an error.
func EmitRecords(placed []PlacedJob, nodes int, interval, horizon float64, emit func(Record) error) error {
	if interval <= 0 || horizon <= 0 {
		return errors.New("grizzly: non-positive interval or horizon")
	}
	// Index: node -> jobs placed on it (few per node, scan is fine).
	byNode := make([][]*PlacedJob, nodes)
	for i := range placed {
		for _, n := range placed[i].Nodes {
			byNode[n] = append(byNode[n], &placed[i])
		}
	}
	for t := 0.0; t < horizon; t += interval {
		for n := 0; n < nodes; n++ {
			rec := Record{TimeSec: t, Node: n, FreeMB: NodeMemMB}
			for _, pj := range byNode[n] {
				if t >= pj.Start && t < pj.End() {
					rec.JobID = pj.Job.ID
					rec.ActiveMB = pj.Job.Usage.At(t - pj.Start)
					rec.FreeMB = NodeMemMB - rec.ActiveMB
					break
				}
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReconstructJobs performs the paper's deduction: group the record stream
// by job ID to recover each job's node count, duration, and per-node memory
// usage over time. The usage trace is taken from the job's lowest-numbered
// node and RDP-reduced with the given tolerance fraction of its peak.
func ReconstructJobs(records []Record, interval, rdpEpsilonFrac float64) ([]TraceJob, error) {
	if interval <= 0 {
		return nil, errors.New("grizzly: non-positive interval")
	}
	type acc struct {
		nodes   map[int]bool
		firstT  float64
		lastT   float64
		refNode int
		refPts  []memtrace.Point
		havePts bool
	}
	jobs := map[int]*acc{}
	for _, r := range records {
		if r.JobID == 0 {
			continue
		}
		a, ok := jobs[r.JobID]
		if !ok {
			a = &acc{nodes: map[int]bool{}, firstT: r.TimeSec, refNode: r.Node}
			jobs[r.JobID] = a
		}
		a.nodes[r.Node] = true
		if r.TimeSec < a.firstT {
			a.firstT = r.TimeSec
		}
		if r.TimeSec > a.lastT {
			a.lastT = r.TimeSec
		}
		if r.Node < a.refNode {
			a.refNode = r.Node
			a.refPts = nil
			a.havePts = false
		}
		if r.Node == a.refNode {
			a.refPts = append(a.refPts, memtrace.Point{T: r.TimeSec, MB: r.ActiveMB})
			a.havePts = true
		}
	}
	out := make([]TraceJob, 0, len(jobs))
	for id, a := range jobs {
		if !a.havePts {
			continue
		}
		sort.Slice(a.refPts, func(i, j int) bool { return a.refPts[i].T < a.refPts[j].T })
		pts := make([]memtrace.Point, 0, len(a.refPts))
		for _, p := range a.refPts {
			p.T -= a.firstT
			if len(pts) > 0 && p.T <= pts[len(pts)-1].T {
				continue
			}
			pts = append(pts, p)
		}
		tr, err := memtrace.New(pts)
		if err != nil {
			return nil, fmt.Errorf("grizzly: job %d: %v", id, err)
		}
		if rdpEpsilonFrac > 0 {
			tr = tr.RDP(rdpEpsilonFrac * float64(tr.Peak()))
		}
		out = append(out, TraceJob{
			ID:       id,
			Nodes:    len(a.nodes),
			Duration: a.lastT - a.firstT + interval, // last sample covers one period
			Usage:    tr,
			peak:     tr.Peak(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}
