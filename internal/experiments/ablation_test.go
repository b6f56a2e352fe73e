package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestAblationUpdateInterval(t *testing.T) {
	p := tiny()
	a, err := RunAblationUpdateInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(UpdateIntervals) {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// Shorter intervals mean at least as many resize operations.
	for i := 1; i < len(a.Rows); i++ {
		if a.Rows[i].Resizes > a.Rows[i-1].Resizes {
			t.Fatalf("interval %gs has more resizes (%d) than shorter %gs (%d)",
				a.Rows[i].IntervalSec, a.Rows[i].Resizes,
				a.Rows[i-1].IntervalSec, a.Rows[i-1].Resizes)
		}
	}
	// Every interval must still reclaim something on this workload.
	for _, r := range a.Rows {
		if !isNaN(r.NormThroughput) && r.Resizes == 0 {
			t.Fatalf("interval %gs: no resizes at all", r.IntervalSec)
		}
	}
	if !strings.Contains(a.String(), "interval") {
		t.Fatal("rendering broken")
	}
}

func TestAblationOOM(t *testing.T) {
	p := tiny()
	a, err := RunAblationOOM(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(a.Rows))
	}
	for _, r := range a.Rows {
		if isNaN(r.NormThroughput) {
			t.Fatalf("%s infeasible", r.Label)
		}
	}
	if !strings.Contains(a.String(), "fail/restart") {
		t.Fatal("rendering broken")
	}
}

func TestAblationBackfill(t *testing.T) {
	p := tiny()
	a, err := RunAblationBackfill(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 policies x 3 algorithms)", len(a.Rows))
	}
	// Backfill never reduces throughput much on this workload (it only
	// adds work the FIFO head was not going to run anyway).
	byKey := map[string]float64{}
	for _, r := range a.Rows {
		byKey[r.Policy+"/"+r.Mode] = r.NormThroughput
	}
	for _, pol := range []string{"static", "dynamic"} {
		if byKey[pol+"/easy"] < byKey[pol+"/none"]-0.1 {
			t.Fatalf("%s: EASY throughput %.3f well below FIFO %.3f",
				pol, byKey[pol+"/easy"], byKey[pol+"/none"])
		}
		// Conservative sits between FIFO and EASY packing-wise; it
		// must not collapse.
		if byKey[pol+"/conservative"] < byKey[pol+"/none"]-0.15 {
			t.Fatalf("%s: conservative throughput %.3f collapsed below FIFO %.3f",
				pol, byKey[pol+"/conservative"], byKey[pol+"/none"])
		}
	}
}

func TestAblationLender(t *testing.T) {
	p := tiny()
	a, err := RunAblationLender(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(a.Rows))
	}
	// With zero hop penalty the two orders must perform comparably
	// (identical model, different lease placement only).
	var zeroMost, zeroNear float64
	for _, r := range a.Rows {
		if r.HopPenalty == 0 {
			if r.Order == "most-free" {
				zeroMost = r.NormThroughput
			} else {
				zeroNear = r.NormThroughput
			}
		}
	}
	if zeroMost == 0 || zeroNear == 0 {
		t.Fatal("zero-penalty rows missing")
	}
	if diff := zeroMost - zeroNear; diff > 0.25 || diff < -0.25 {
		t.Fatalf("zero-penalty orders diverge: %.3f vs %.3f", zeroMost, zeroNear)
	}
}

func TestAblationPriority(t *testing.T) {
	p := tiny()
	a, err := RunAblationPriority(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(a.Rows))
	}
	for _, r := range a.Rows {
		if isNaN(r.NormThroughput) {
			t.Fatalf("%s infeasible", r.Label)
		}
		if r.Fairness < 0 || r.Fairness > 1+1e-9 {
			t.Fatalf("%s: fairness %g out of range", r.Label, r.Fairness)
		}
	}
	if !strings.Contains(a.String(), "boost after 1") {
		t.Fatal("rendering broken")
	}
}

// replicateStat evaluates metric under `seeds` different preset seeds in
// parallel and aggregates the outcomes. NaN results (infeasible scenarios)
// are skipped; if everything is NaN the error is ErrNoSamples.
func replicateStat(p Preset, seeds int, metric func(Preset) (float64, error)) (Stat, error) {
	values, err := replicate(p, seeds, metric)
	if err != nil {
		return Stat{}, err
	}
	return statOf(values)
}

func TestReplicate(t *testing.T) {
	p := tiny()
	s, err := replicateStat(p, 4, func(q Preset) (float64, error) {
		return float64(q.Seed % 10), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 {
		t.Fatalf("n = %d, want 4", s.N)
	}
	if s.Stdev < 0 {
		t.Fatalf("stdev = %g", s.Stdev)
	}
	// NaN samples are dropped.
	s, err = replicateStat(p, 3, func(q Preset) (float64, error) {
		if q.Seed != p.Seed {
			return Infeasible, nil
		}
		return 5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 5 {
		t.Fatalf("stat = %+v, want single sample of 5", s)
	}
	// All-NaN is an error.
	if _, err := replicateStat(p, 2, func(Preset) (float64, error) { return Infeasible, nil }); err != ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

func TestReplicateSeedsDiffer(t *testing.T) {
	p := tiny()
	seen := map[int64]bool{}
	var mu sync.Mutex
	_, err := replicateStat(p, 5, func(q Preset) (float64, error) {
		mu.Lock()
		seen[q.Seed] = true
		mu.Unlock()
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("distinct seeds = %d, want 5", len(seen))
	}
}

func TestModelComparison(t *testing.T) {
	p := tiny()
	m, err := RunModelComparison(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Grids) != 2 {
		t.Fatalf("grids = %d, want 2", len(m.Grids))
	}
	// The headline conclusion must hold under both workload models
	// (small tolerance for quick-scale noise).
	if !m.DynamicWinsEverywhere(0.15) {
		t.Fatalf("dynamic loses under some model:\n%s", m)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lublin") {
		t.Fatal("CSV missing lublin rows")
	}
}

func TestUtilizationExperiment(t *testing.T) {
	p := tiny()
	u, err := RunUtilization(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rows) != 8*3 {
		t.Fatalf("rows = %d, want 24", len(u.Rows))
	}
	byKey := map[string]UtilizationRow{}
	for _, r := range u.Rows {
		if !isNaN(r.Used) && r.Used > r.Allocated+1e-9 {
			t.Fatalf("%d%%/%s: used %g above allocated %g", r.MemPct, r.Policy, r.Used, r.Allocated)
		}
		byKey[r.Policy+"/"+strconvItoa(r.MemPct)] = r
	}
	// At a feasible provisioning level, static strands more memory than
	// dynamic (the reclaiming effect).
	s, okS := byKey["static/100"]
	d, okD := byKey["dynamic/100"]
	if !okS || !okD || isNaN(s.Allocated) || isNaN(d.Allocated) {
		t.Fatal("100% rows missing")
	}
	if d.Stranded() > s.Stranded()+1e-9 {
		t.Fatalf("dynamic strands more (%g) than static (%g)", d.Stranded(), s.Stranded())
	}
	if !strings.Contains(u.String(), "stranded") {
		t.Fatal("rendering broken")
	}
	var buf bytes.Buffer
	if err := u.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func strconvItoa(v int) string { return fmt.Sprintf("%d", v) }
