package grizzly

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dismem/internal/sweep"
	"dismem/internal/workload"
)

func smallParams(weeks int) Params {
	return Params{Nodes: 64, WeekCount: weeks}
}

// generateSerialRef is Generate with every job's RDP reduction run inline,
// in draw order: the oracle for the pool pipeline.
func generateSerialRef(p Params, rng *rand.Rand) *Dataset {
	p.normalize()
	d := &Dataset{Nodes: p.Nodes}
	id := 1
	for w := 0; w < p.WeekCount; w++ {
		util := p.MeanUtil + rng.NormFloat64()*p.UtilSigma
		if util < 0.2 {
			util = 0.2
		}
		if util > 0.95 {
			util = 0.95
		}
		week := Week{Index: w, Utilization: util}
		target := util * float64(p.Nodes) * WeekSec
		var accum float64
		for accum < target {
			tj, raw, eps := generateJob(rng, id, p)
			tj.Usage = raw.RDP(eps)
			id++
			week.Jobs = append(week.Jobs, tj)
			accum += float64(tj.Nodes) * tj.Duration
		}
		week.Utilization = accum / (float64(p.Nodes) * WeekSec)
		d.Weeks = append(d.Weeks, week)
	}
	return d
}

// TestGenerateMatchesSerial holds the pipelined generator to the serial
// reference: the same weeks, job IDs, sizes, durations, utilisations and
// reduced points, at several system sizes and week counts, both from a
// plain caller and from inside a pool task (the nesting Fig 5 and Fig 8
// use, where the waits must help rather than block).
func TestGenerateMatchesSerial(t *testing.T) {
	cases := []Params{
		{Nodes: 16, WeekCount: 1},
		{Nodes: 64, WeekCount: 3},
		{Nodes: 144, WeekCount: 2},
		{Nodes: 256, WeekCount: 1, RDPEpsilonFrac: 0.005},
	}
	for i, p := range cases {
		seed := int64(100 + i)
		want := generateSerialRef(p, rand.New(rand.NewSource(seed)))
		got := Generate(p, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: pipelined dataset differs from the serial reference", p)
		}
		// Nested: two generations at once, each inside a pool task.
		futs := make([]*sweep.Future[*Dataset], 2)
		for k := range futs {
			futs[k] = sweep.Submit(sweep.SharedPool(), func() (*Dataset, error) {
				return Generate(p, rand.New(rand.NewSource(seed))), nil
			})
		}
		for k, f := range futs {
			d, err := f.Get()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("%+v: nested generation %d differs from the serial reference", p, k)
			}
		}
	}
}

func TestGenerateWeeks(t *testing.T) {
	d := Generate(smallParams(8), rand.New(rand.NewSource(1)))
	if len(d.Weeks) != 8 {
		t.Fatalf("weeks = %d, want 8", len(d.Weeks))
	}
	for _, w := range d.Weeks {
		if len(w.Jobs) == 0 {
			t.Fatalf("week %d has no jobs", w.Index)
		}
		if w.Utilization < 0.2 || w.Utilization > 1.2 {
			t.Fatalf("week %d utilisation %g implausible", w.Index, w.Utilization)
		}
		// Achieved utilisation must match the job content.
		var nh float64
		for i := range w.Jobs {
			nh += float64(w.Jobs[i].Nodes) * w.Jobs[i].Duration
		}
		got := nh / (float64(d.Nodes) * WeekSec)
		if math.Abs(got-w.Utilization) > 1e-9 {
			t.Fatalf("week %d: recorded util %g != computed %g", w.Index, w.Utilization, got)
		}
	}
}

func TestJobShapes(t *testing.T) {
	d := Generate(smallParams(3), rand.New(rand.NewSource(2)))
	for _, w := range d.Weeks {
		for i := range w.Jobs {
			j := &w.Jobs[i]
			if j.Nodes < 1 || j.Nodes > 128 {
				t.Fatalf("job %d: nodes %d", j.ID, j.Nodes)
			}
			if j.Duration < 120 || j.Duration > WeekSec {
				t.Fatalf("job %d: duration %g", j.ID, j.Duration)
			}
			if p := j.PeakMB(); p < 1 || p > NodeMemMB {
				t.Fatalf("job %d: peak %d outside (0, 128GB]", j.ID, p)
			}
			if j.Usage.Len() < 2 {
				t.Fatalf("job %d: trace too short", j.ID)
			}
		}
	}
}

func TestMemoryDistributionMatchesTable2(t *testing.T) {
	d := Generate(Params{Nodes: 256, WeekCount: 20}, rand.New(rand.NewSource(3)))
	var normalMB, largeMB []int64
	for _, w := range d.Weeks {
		for i := range w.Jobs {
			j := &w.Jobs[i]
			if j.Nodes > 32 {
				largeMB = append(largeMB, j.PeakMB())
			} else {
				normalMB = append(normalMB, j.PeakMB())
			}
		}
	}
	if len(normalMB) < 100 || len(largeMB) < 20 {
		t.Skipf("too few samples: %d normal, %d large", len(normalMB), len(largeMB))
	}
	got := workload.GrizzlyNormalSize.Histogram(normalMB)
	for i, b := range workload.GrizzlyNormalSize {
		if math.Abs(got[i]-b.Share) > 0.08 {
			t.Fatalf("normal-size bucket %d: share %g, want %g ± 0.08", i, got[i], b.Share)
		}
	}
}

func TestMeanMemoryUtilisationLow(t *testing.T) {
	// Panwar et al. report ~18 % average node memory utilisation; our
	// generator must keep the average well below the peak.
	d := Generate(smallParams(4), rand.New(rand.NewSource(4)))
	var meanSum, peakSum float64
	var n int
	for _, w := range d.Weeks {
		for i := range w.Jobs {
			j := &w.Jobs[i]
			m, err := j.Usage.MeanOver(j.Duration)
			if err != nil {
				t.Fatal(err)
			}
			meanSum += m
			peakSum += float64(j.PeakMB())
			n++
		}
	}
	ratio := meanSum / peakSum
	if ratio > 0.6 {
		t.Fatalf("mean/peak usage ratio = %g, want well below 1 (paper: large gap)", ratio)
	}
}

func TestSampleWeeks(t *testing.T) {
	d := Generate(smallParams(20), rand.New(rand.NewSource(5)))
	rng := rand.New(rand.NewSource(6))
	weeks, err := d.SampleWeeks(rng, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(weeks) > 5 {
		t.Fatalf("sampled %d weeks, want ≤ 5", len(weeks))
	}
	for _, w := range weeks {
		if w.Utilization < 0.7 {
			t.Fatalf("sampled week %d with utilisation %g < 0.7", w.Index, w.Utilization)
		}
	}
	if _, err := d.SampleWeeks(rng, 2.0, 3); err == nil {
		t.Fatal("impossible threshold accepted")
	}
}

func TestBuildJobs(t *testing.T) {
	d := Generate(smallParams(4), rand.New(rand.NewSource(7)))
	w := &d.Weeks[0]
	jobs, err := w.BuildJobs(BuildParams{Overestimation: 0.6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(w.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(jobs), len(w.Jobs))
	}
	for i, j := range jobs {
		if j.RequestMB < j.PeakUsageMB() {
			t.Fatalf("job %d under-requested", j.ID)
		}
		if j.SubmitTime < 0 || j.SubmitTime >= WeekSec {
			t.Fatalf("job %d submit %g outside the week", j.ID, j.SubmitTime)
		}
		if i > 0 && jobs[i-1].SubmitTime > j.SubmitTime {
			t.Fatal("jobs not sorted by submission")
		}
		if j.Profile == nil {
			t.Fatalf("job %d has no profile", j.ID)
		}
	}
}

func TestWeekAggregates(t *testing.T) {
	d := Generate(smallParams(2), rand.New(rand.NewSource(9)))
	w := &d.Weeks[0]
	maxNH := w.MaxJobNodeHours()
	maxMem := w.MaxJobMemMB()
	for i := range w.Jobs {
		if w.Jobs[i].NodeHours() > maxNH {
			t.Fatal("MaxJobNodeHours not the maximum")
		}
		if w.Jobs[i].PeakMB() > maxMem {
			t.Fatal("MaxJobMemMB not the maximum")
		}
	}
}

// Property: overestimation sweeps preserve the request ≥ peak invariant and
// the ordering request(+a) ≤ request(+b) for a ≤ b.
func TestQuickOverestimationMonotone(t *testing.T) {
	d := Generate(smallParams(1), rand.New(rand.NewSource(10)))
	w := &d.Weeks[0]
	f := func(seed int64, a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		ja, err := w.BuildJobs(BuildParams{Overestimation: a, Seed: seed})
		if err != nil {
			return false
		}
		jb, err := w.BuildJobs(BuildParams{Overestimation: b, Seed: seed})
		if err != nil {
			return false
		}
		for i := range ja {
			if ja[i].RequestMB > jb[i].RequestMB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
