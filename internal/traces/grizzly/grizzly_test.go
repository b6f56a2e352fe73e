package grizzly

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dismem/internal/sweep"
	"dismem/internal/workload"
)

func smallParams(weeks int) Params {
	return Params{Nodes: 64, WeekCount: weeks}
}

// buildSerialRef builds every job's usage trace of d inline, in job
// order: the oracle for the pool build.
func buildSerialRef(d *Dataset) {
	for w := range d.Weeks {
		week := &d.Weeks[w]
		for i := range week.Jobs {
			week.Jobs[i].Usage = week.Jobs[i].buildUsage(week.rdpEpsilonFrac)
		}
	}
}

// TestBuildMatchesSerial holds the pool build of a week to the serial
// reference: the same traces at the same job indices, at several system
// sizes, week counts and tolerances, both from a plain caller and from
// inside pool tasks (the nesting Figures 5 and 8 use, where the waits must
// help rather than block). BuildJobs on an unbuilt week must build the same
// traces into its jobs and leave the week unbuilt.
func TestBuildMatchesSerial(t *testing.T) {
	cases := []Params{
		{Nodes: 16, WeekCount: 1},
		{Nodes: 64, WeekCount: 3},
		{Nodes: 144, WeekCount: 2},
		{Nodes: 256, WeekCount: 1, RDPEpsilonFrac: 0.005},
	}
	for i, p := range cases {
		seed := int64(100 + i)
		want := Generate(p, rand.New(rand.NewSource(seed)))
		buildSerialRef(want)
		got := Generate(p, rand.New(rand.NewSource(seed)))
		for w := range got.Weeks {
			got.Weeks[w].Build()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: pool-built dataset differs from the serial reference", p)
		}
		// Nested: two builds of each week at once, each inside a pool task.
		skel := Generate(p, rand.New(rand.NewSource(seed)))
		for w := range skel.Weeks {
			futs := make([]*sweep.Future[Week], 2)
			for k := range futs {
				futs[k] = sweep.Submit(sweep.SharedPool(), func() (Week, error) {
					week := skel.Weeks[w]
					week.Jobs = slices.Clone(week.Jobs)
					week.Build()
					return week, nil
				})
			}
			for k, f := range futs {
				week, err := f.Get()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(week, want.Weeks[w]) {
					t.Fatalf("%+v: nested build %d of week %d differs from the serial reference", p, k, w)
				}
			}
		}
		// BuildJobs on the skeleton builds into its jobs only.
		bp := BuildParams{Overestimation: 0.3, Seed: seed}
		fromSkel, err := skel.Weeks[0].BuildJobs(bp)
		if err != nil {
			t.Fatal(err)
		}
		fromBuilt, err := want.Weeks[0].BuildJobs(bp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromSkel, fromBuilt) {
			t.Fatalf("%+v: jobs built from the skeleton differ from those of the built week", p)
		}
		for _, tj := range skel.Weeks[0].Jobs {
			if tj.Usage != nil {
				t.Fatalf("%+v: BuildJobs wrote job %d's trace into the week", p, tj.ID)
			}
		}
	}
}

// TestSkeletonPeakIsTracePeak builds every week of a multi-week dataset,
// at the default tolerance and at ones wide enough to flatten a whole peak
// plateau, and requires each job's skeleton peak, which Table 2 and
// Figure 2 read, to be the peak of the trace that is simulated.
func TestSkeletonPeakIsTracePeak(t *testing.T) {
	for _, eps := range []float64{0, 0.5, 3} {
		d := Generate(Params{Nodes: 144, WeekCount: 6, RDPEpsilonFrac: eps}, rand.New(rand.NewSource(12)))
		jobs := 0
		for w := range d.Weeks {
			week := &d.Weeks[w]
			week.Build()
			for i := range week.Jobs {
				tj := &week.Jobs[i]
				if got := tj.Usage.Peak(); got != tj.PeakMB() {
					t.Fatalf("eps %g, week %d, job %d: trace peak %d, skeleton peak %d", eps, w, tj.ID, got, tj.PeakMB())
				}
				jobs++
			}
		}
		if jobs < 1000 {
			t.Fatalf("eps %g: only %d jobs checked", eps, jobs)
		}
	}
}

// buildAll builds every week of d.
func buildAll(d *Dataset) *Dataset {
	for w := range d.Weeks {
		d.Weeks[w].Build()
	}
	return d
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
	d := buildAll(Generate(smallParams(3), rand.New(rand.NewSource(2))))
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
	d := buildAll(Generate(smallParams(4), rand.New(rand.NewSource(4))))
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
