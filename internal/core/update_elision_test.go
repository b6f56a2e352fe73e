package core

import (
	"math"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/sim"
)

// flagObserver records the contention flags at each AllocationChanged
// callback, which a memory update makes after its resize and before its
// contention refresh: whether the resized job was marked dirty and the
// model stale.
type flagObserver struct {
	s            *Simulator
	seen         bool
	dirty, stale bool
}

func (*flagObserver) JobSubmitted(float64, *job.Job, bool)       {}
func (*flagObserver) JobStarted(float64, *job.Job, int64, int64) {}
func (*flagObserver) JobFinished(float64, *job.Job, Outcome)     {}
func (*flagObserver) JobKilledOOM(float64, *job.Job, int)        {}

func (o *flagObserver) AllocationChanged(_ float64, j *job.Job, _, _ int64) {
	for _, rj := range o.s.runList {
		if rj.j == j {
			o.seen, o.dirty, o.stale = true, rj.dirty, o.s.stale
		}
	}
}

// TestMemoryUpdateTouchesOnlyWhatCanChange steps a scripted run one event
// at a time and checks, after each memory update of the subject job, that
// the update did only the work that could change something:
//
//   - a grow or shrink of a node that holds no remote memory before or
//     after leaves the model's stale flag clear and the job clean, and no
//     other job's finish event moves;
//   - a grow that borrows, a resize of a node that keeps a lease (a local
//     grow and a shrink) and a shrink that returns the node's last lease
//     each mark the job dirty and the model stale;
//   - an update whose target equals the last one leaves every node's
//     ledger free memory as it was.
//
// Three 1000 MB nodes. The subject runs at slowdown 1 (a flat sensitivity
// curve), so update k fires at progress 100k and provisions the larger of
// the usage steps at 100k−50 and 100k+50. A filler holds 700 MB of its own
// node. A lodger asks for 1300 MB and borrows 300 MB from the subject's
// node, the most free; it is slowed by contention, so a refresh that ran
// would have a remote holder to reslow. The subject borrows from the
// filler's node at its second update. The lodger then finishes and frees
// the subject's node, so the subject's fourth update grows locally while it
// holds its lease.
func TestMemoryUpdateTouchesOnlyWhatCanChange(t *testing.T) {
	cfg := baseConfig(3, 1000, policy.Dynamic)
	cfg.UpdateInterval = 100
	steps := []int64{500, 500, 800, 800, 900, 850, 850, 600, 600, 700, 700}
	pts := make([]memtrace.Point, len(steps))
	for k, mb := range steps {
		pts[k] = memtrace.Point{T: 50 + 100*float64(k), MB: mb}
	}
	subject := mkJob(1, 0, 1, 600, 100*float64(len(steps)), memtrace.MustNew(pts))
	filler := mkJob(2, 0, 1, 700, 5000, memtrace.Constant(700))
	lodger := mkJob(3, 0, 1, 1300, 250, memtrace.Constant(1300))
	lodger.Profile = streamProfile()

	obs := &flagObserver{}
	cfg.Observer = obs
	s, err := New(cfg, []*job.Job{subject, filler, lodger})
	if err != nil {
		t.Fatal(err)
	}
	obs.s = s
	s.Start()

	counts := map[string]int{}
	finishes := make([]float64, len(s.table))
	for {
		sub := s.table[0].run
		var updateEv sim.Handle
		var nodes []nodeMB
		var target int64
		if sub != nil {
			updateEv, nodes, target = sub.updateEv, snapshotNodes(s)[sub], sub.target
		}
		free := make([]int64, s.cl.Len())
		for i, n := range s.cl.Nodes() {
			free[i] = n.FreeMB()
		}
		for i := range s.table {
			if rj := s.table[i].run; rj != nil {
				finishes[i] = rj.finishEv.At()
			}
		}
		obs.seen = false
		if !s.eng.Step(math.Inf(1)) {
			break
		}
		checkRescanOracles(t, s)
		if sub == nil || s.table[0].run != sub || sub.updateEv == updateEv {
			continue // not an update of the running subject
		}
		if s.stale {
			t.Fatalf("t=%v: model stale after the update's refresh", s.eng.Now())
		}
		before, after := nodes[0], nodeMB{sub.alloc.PerNode[0].TotalMB(), sub.alloc.PerNode[0].RemoteMB()}
		if sub.target == target {
			counts["unchanged target"]++
			if after != before || obs.seen {
				t.Fatalf("t=%v: target %d unchanged, but the node went %+v -> %+v", s.eng.Now(), target, before, after)
			}
			for i, n := range s.cl.Nodes() {
				if n.FreeMB() != free[i] {
					t.Fatalf("t=%v: target %d unchanged, but node %d's free memory went %d -> %d", s.eng.Now(), target, i, free[i], n.FreeMB())
				}
			}
			continue
		}
		if !obs.seen {
			t.Fatalf("t=%v: target %d -> %d without a resize", s.eng.Now(), target, sub.target)
		}
		local := before.remote == 0 && after.remote == 0
		grow := after.total > before.total
		switch {
		case local && grow:
			counts["local grow"]++
		case local:
			counts["local shrink"]++
		case before.remote == 0:
			counts["borrowing grow"]++
		case after.remote == 0:
			counts["last lease returned"]++
		case grow && after.remote == before.remote:
			counts["local grow holding a lease"]++
		default:
			counts["shrink keeping a lease"]++
		}
		if !local {
			if !obs.dirty || !obs.stale {
				t.Fatalf("t=%v: resize %+v -> %+v can move the remote share but marked dirty=%v stale=%v", s.eng.Now(), before, after, obs.dirty, obs.stale)
			}
			continue
		}
		if obs.dirty || obs.stale {
			t.Fatalf("t=%v: local-only resize %+v -> %+v marked dirty=%v stale=%v", s.eng.Now(), before, after, obs.dirty, obs.stale)
		}
		for i := 1; i < len(s.table); i++ {
			if rj := s.table[i].run; rj != nil {
				if rj.finishEv.At() != finishes[i] {
					t.Fatalf("t=%v: local-only resize moved job %d's finish %v -> %v", s.eng.Now(), rj.j.ID, finishes[i], rj.finishEv.At())
				}
				if rj.slow > 1 {
					counts["local resize beside a slowed job"]++
				}
			}
		}
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Logf("subject's updates: %v", counts)
	for _, what := range []string{
		"local grow", "local shrink", "borrowing grow", "local grow holding a lease",
		"shrink keeping a lease", "last lease returned", "unchanged target", "local resize beside a slowed job",
	} {
		if counts[what] == 0 {
			t.Errorf("no %s among the subject's updates", what)
		}
	}
}
