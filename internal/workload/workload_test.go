package workload

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCirneParamsValidate(t *testing.T) {
	good := NewCirneParams(1024, 0.8, 7)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Load = 0
	if err := bad.validate(); !errors.Is(err, ErrParams) {
		t.Fatalf("zero load: err = %v", err)
	}
	bad = good
	bad.MaxNodes = 0
	if err := bad.validate(); !errors.Is(err, ErrParams) {
		t.Fatalf("zero max nodes: err = %v", err)
	}
	bad = good
	bad.LimitAccuracyMin = 0
	if err := bad.validate(); !errors.Is(err, ErrParams) {
		t.Fatalf("zero limit accuracy: err = %v", err)
	}
}

func TestGenerateMeetsLoadTarget(t *testing.T) {
	p := NewCirneParams(256, 0.8, 2)
	specs, err := Generate(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no jobs generated")
	}
	var nodeSec float64
	for _, s := range specs {
		nodeSec += float64(s.Nodes) * s.Runtime
	}
	target := p.Load * float64(p.SystemNodes) * p.Days * 86400
	if nodeSec < target {
		t.Fatalf("node-seconds %g below target %g", nodeSec, target)
	}
	// One job of overshoot at most.
	if nodeSec > target+float64(p.MaxNodes)*p.MaxRuntime {
		t.Fatalf("node-seconds %g overshoots target %g by more than one job", nodeSec, target)
	}
}

func TestGenerateSpecInvariants(t *testing.T) {
	p := NewCirneParams(512, 0.7, 3)
	specs, err := Generate(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	span := p.Days * 86400
	serial := 0
	for i, s := range specs {
		if s.Nodes < 1 || s.Nodes > p.MaxNodes {
			t.Fatalf("spec %d: nodes %d out of range", i, s.Nodes)
		}
		if s.Runtime < p.MinRuntime || s.Runtime > p.MaxRuntime {
			t.Fatalf("spec %d: runtime %g out of range", i, s.Runtime)
		}
		if s.Limit < s.Runtime {
			t.Fatalf("spec %d: limit %g below runtime %g", i, s.Limit, s.Runtime)
		}
		if s.Limit > s.Runtime/p.LimitAccuracyMin*1.0001 {
			t.Fatalf("spec %d: limit %g exceeds max padding", i, s.Limit)
		}
		if s.Submit < 0 || s.Submit >= span {
			t.Fatalf("spec %d: submit %g outside trace span", i, s.Submit)
		}
		if i > 0 && specs[i-1].Submit > s.Submit {
			t.Fatal("specs not sorted by submission")
		}
		if s.Nodes == 1 {
			serial++
		}
	}
	// Serial fraction should be at least the configured floor (size
	// sampling can add more 1-node jobs).
	if frac := float64(serial) / float64(len(specs)); frac < p.SerialFrac*0.7 {
		t.Fatalf("serial fraction %g far below configured %g", frac, p.SerialFrac)
	}
}

func TestGenerateDayCycle(t *testing.T) {
	p := NewCirneParams(2048, 0.9, 10)
	specs, err := Generate(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	day, night := 0, 0
	for _, s := range specs {
		h := math.Mod(s.Submit/3600, 24)
		if h >= 9 && h < 19 {
			day++
		} else if h < 5 || h >= 23 {
			night++
		}
	}
	// Peak hours span 10h, sampled night hours 6h; normalise per hour.
	if float64(day)/10 <= float64(night)/6 {
		t.Fatalf("no diurnal cycle: day/h=%g night/h=%g", float64(day)/10, float64(night)/6)
	}
}

func TestQuantileSampler(t *testing.T) {
	s, err := NewQuantileSampler(1, 10, 100, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 10}, {0.5, 100}, {0.75, 1000}, {1, 10000},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9*tc.want {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Log-linear interpolation between knots.
	if got := s.Quantile(0.375); math.Abs(got-math.Sqrt(10*100)) > 1e-6 {
		t.Errorf("Quantile(0.375) = %g, want geometric mean %g", got, math.Sqrt(1000.0))
	}
	if _, err := NewQuantileSampler(5, 4, 3, 2, 1); !errors.Is(err, ErrBadSummary) {
		t.Fatalf("decreasing summary: err = %v", err)
	}
}

func TestMemorySamplersMatchTable3(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 20000
	normal := NormalMemorySampler()
	large := LargeMemorySampler()
	var nv, lv []float64
	for i := 0; i < n; i++ {
		nv = append(nv, normal.Sample(rng))
		lv = append(lv, large.Sample(rng))
	}
	med := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	if m := med(nv); m < 6000 || m > 11000 {
		t.Fatalf("normal median = %g, want ≈8089 (Table 3)", m)
	}
	if m := med(lv); m < 80000 || m > 95000 {
		t.Fatalf("large median = %g, want ≈86961 (Table 3)", m)
	}
	for _, v := range lv {
		if v < 65538 || v > 130046 {
			t.Fatalf("large sample %g outside Table 3 bounds", v)
		}
	}
}

func TestArcherDistributionsValid(t *testing.T) {
	for _, d := range []MemoryDist{
		ArcherAll, ArcherNormalSize, ArcherLargeSize,
		GrizzlyAll, GrizzlyNormalSize, GrizzlyLargeSize,
	} {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemoryDistSampleHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var vals []int64
	for i := 0; i < 50000; i++ {
		vals = append(vals, ArcherAll.SampleMB(rng))
	}
	got := ArcherAll.Histogram(vals)
	for i, b := range ArcherAll {
		if math.Abs(got[i]-b.Share) > 0.02 {
			t.Fatalf("bucket %d share = %g, want %g ± 0.02", i, got[i], b.Share)
		}
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	got := ArcherAll.Histogram([]int64{999999999})
	if got[len(got)-1] != 1 {
		t.Fatalf("outlier not clamped into last bucket: %v", got)
	}
	empty := ArcherAll.Histogram(nil)
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty histogram not all-zero")
		}
	}
}

func TestOverestimate(t *testing.T) {
	if got := Overestimate(1000, 0.6); got != 1600 {
		t.Fatalf("got %d, want 1600", got)
	}
	if got := Overestimate(1000, 0); got != 1000 {
		t.Fatalf("got %d, want 1000", got)
	}
	if got := Overestimate(1000, -1); got != 1000 {
		t.Fatalf("negative factor: got %d, want clamp to 1000", got)
	}
}

func TestBuildJobs(t *testing.T) {
	p := NewCirneParams(64, 0.7, 1)
	specs, err := Generate(p, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildJobs(specs, BuildParams{
		LargeFrac:      0.5,
		Overestimation: 0.6,
		NormalNodeMB:   64 * 1024,
		Source:         PhasedUsage{},
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) {
		t.Fatalf("jobs = %d, specs = %d", len(jobs), len(specs))
	}
	largeCount := 0
	for _, j := range jobs {
		peak := j.PeakUsageMB()
		// Request = peak × 1.6.
		want := Overestimate(peak, 0.6)
		if j.RequestMB != want {
			t.Fatalf("job %d request = %d, want %d", j.ID, j.RequestMB, want)
		}
		if j.Profile == nil {
			t.Fatalf("job %d has no matched profile", j.ID)
		}
		if peak > 64*1024 {
			largeCount++
		}
	}
	frac := float64(largeCount) / float64(len(jobs))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("large-memory fraction = %g, want ≈0.5", frac)
	}
}

func TestBuildJobsRequiresSource(t *testing.T) {
	if _, err := BuildJobs(nil, BuildParams{}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("err = %v, want ErrNoSource", err)
	}
}

func TestPhasedUsageShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		tr := PhasedUsage{}.TraceFor(rng, 10000, 3600)
		if tr.Peak() != 10000 {
			t.Fatalf("peak = %d, want exactly 10000", tr.Peak())
		}
		mean, err := tr.MeanOver(3600)
		if err != nil {
			t.Fatal(err)
		}
		if mean >= 10000 {
			t.Fatalf("mean %g not below peak", mean)
		}
	}
}

// Property: build preserves spec ordering and produces valid jobs for any
// mix/overestimation setting.
func TestQuickBuildValid(t *testing.T) {
	f := func(seed int64, largeFrac, ov float64) bool {
		largeFrac = math.Abs(math.Mod(largeFrac, 1))
		ov = math.Abs(math.Mod(ov, 1))
		p := NewCirneParams(32, 0.5, 0.5)
		specs, err := Generate(p, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		jobs, err := BuildJobs(specs, BuildParams{
			LargeFrac: largeFrac, Overestimation: ov,
			Source: PhasedUsage{}, Seed: seed,
		})
		if err != nil {
			return false
		}
		for i, j := range jobs {
			if j.Validate() != nil {
				return false
			}
			if j.RequestMB < j.PeakUsageMB() {
				return false // overestimation never under-requests
			}
			if i > 0 && jobs[i-1].SubmitTime > j.SubmitTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quantile function is monotone.
func TestQuickQuantileMonotone(t *testing.T) {
	s := LargeMemorySampler()
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCharacterize(t *testing.T) {
	p := NewCirneParams(64, 0.7, 1)
	specs, err := Generate(p, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildJobs(specs, BuildParams{
		LargeFrac: 0.5, Overestimation: 0.6,
		NormalNodeMB: 64 * 1024, Source: PhasedUsage{}, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Characterize(jobs, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if c.Jobs != len(jobs) {
		t.Fatalf("jobs = %d", c.Jobs)
	}
	// Requests were inflated by ~60% (integer truncation shaves a bit
	// off jobs with tiny peaks).
	if math.Abs(c.MeanOverestimation-0.6) > 0.05 {
		t.Fatalf("mean overestimation = %g, want ≈0.6", c.MeanOverestimation)
	}
	// Large-memory mix near the configured 50%.
	if c.LargeMemFrac < 0.3 || c.LargeMemFrac > 0.7 {
		t.Fatalf("large fraction = %g", c.LargeMemFrac)
	}
	// The reclaimable gap: average usage well below peak.
	if c.AvgToPeak <= 0 || c.AvgToPeak >= 1 {
		t.Fatalf("avg/peak = %g, want in (0,1)", c.AvgToPeak)
	}
	// Offered load near the generator's target when measured against the
	// generating system size (generous tolerance: span ends at the last
	// submission).
	if l := c.Load(64); l < 0.3 || l > 3 {
		t.Fatalf("load = %g, implausible", l)
	}
	if c.DiurnalIndex < 1 {
		t.Fatalf("diurnal index = %g, want ≥ 1", c.DiurnalIndex)
	}
	if !strings.Contains(c.String(), "large-memory jobs") {
		t.Fatal("rendering broken")
	}
	if _, err := Characterize(nil, 64*1024); err == nil {
		t.Fatal("empty trace accepted")
	}
}
