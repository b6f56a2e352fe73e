package memtrace

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustTrace(t *testing.T, pts []Point) *Trace {
	t.Helper()
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: err = %v, want ErrEmpty", err)
	}
	if _, err := New([]Point{{T: 1, MB: 5}, {T: 1, MB: 6}}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("dup time: err = %v, want ErrUnsorted", err)
	}
	if _, err := New([]Point{{T: 2, MB: 5}, {T: 1, MB: 6}}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted: err = %v, want ErrUnsorted", err)
	}
	if _, err := New([]Point{{T: -1, MB: 5}}); !errors.Is(err, ErrNegative) {
		t.Fatalf("negative time: err = %v, want ErrNegative", err)
	}
	if _, err := New([]Point{{T: 0, MB: -5}}); !errors.Is(err, ErrNegative) {
		t.Fatalf("negative MB: err = %v, want ErrNegative", err)
	}
	// A NaN time would pass both the sign and the order comparisons.
	if _, err := New([]Point{{T: 2, MB: 5}, {T: math.NaN(), MB: 6}, {T: 1, MB: 7}}); !errors.Is(err, ErrNegative) {
		t.Fatalf("NaN time: err = %v, want ErrNegative", err)
	}
}

func TestAtStepSemantics(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 0, MB: 10}, {T: 100, MB: 50}, {T: 200, MB: 20}})
	cases := []struct {
		t    float64
		want int64
	}{
		{0, 10}, {99.9, 10}, {100, 50}, {150, 50}, {200, 20}, {1e6, 20},
	}
	for _, tc := range cases {
		if got := tr.At(tc.t); got != tc.want {
			t.Errorf("At(%g) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestAtBeforeFirstSample(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 10, MB: 42}})
	if got := tr.At(0); got != 42 {
		t.Fatalf("At(0) = %d, want first value 42", got)
	}
}

func TestMaxIn(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 0, MB: 10}, {T: 100, MB: 80}, {T: 200, MB: 30}, {T: 300, MB: 60}})
	cases := []struct {
		t0, t1 float64
		want   int64
	}{
		{0, 50, 10},    // flat start
		{0, 150, 80},   // crosses the 80 step
		{150, 250, 80}, // starts inside the 80 segment
		{210, 290, 30}, // inside the 30 segment
		{210, 301, 60}, // picks up the 60 step
		{500, 600, 60}, // past the end: final value
		{150, 150, 80}, // empty window: value at t0
	}
	for _, tc := range cases {
		if got := tr.MaxIn(tc.t0, tc.t1); got != tc.want {
			t.Errorf("MaxIn(%g,%g) = %d, want %d", tc.t0, tc.t1, got, tc.want)
		}
	}
	// Reversed bounds are normalised.
	if got := tr.MaxIn(150, 0); got != 80 {
		t.Errorf("MaxIn(150,0) = %d, want 80", got)
	}
}

func TestPeakAndMean(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 0, MB: 10}, {T: 100, MB: 90}, {T: 200, MB: 10}})
	if got := tr.Peak(); got != 90 {
		t.Fatalf("Peak = %d, want 90", got)
	}
	// Over [0,300]: 100s@10 + 100s@90 + 100s@10 = 110/3 avg.
	mean, err := tr.MeanOver(300)
	if err != nil {
		t.Fatal(err)
	}
	want := (100*10.0 + 100*90.0 + 100*10.0) / 300.0
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("MeanOver(300) = %g, want %g", mean, want)
	}
	if _, err := tr.MeanOver(0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("MeanOver(0): err = %v, want ErrBadWindow", err)
	}
}

func TestMeanOverCountsLeadingGap(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 50, MB: 40}})
	mean, err := tr.MeanOver(100)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 40 {
		t.Fatalf("MeanOver = %g, want 40 (gap filled with first value)", mean)
	}
}

func TestScale(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 0, MB: 10}, {T: 50, MB: 20}, {T: 100, MB: 30}})
	scaled, err := tr.Scale(1000)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Duration() != 1000 {
		t.Fatalf("scaled duration = %g, want 1000", scaled.Duration())
	}
	if got := scaled.At(499); got != 10 {
		t.Fatalf("scaled At(499) = %d, want 10", got)
	}
	if got := scaled.At(500); got != 20 {
		t.Fatalf("scaled At(500) = %d, want 20", got)
	}
	// Single-point traces scale trivially.
	one := Constant(77)
	s, err := one.Scale(123)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != 77 || s.Len() != 1 {
		t.Fatalf("constant scale broken: %+v", s.Points())
	}
	if _, err := tr.Scale(0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("Scale(0): err = %v, want ErrBadWindow", err)
	}
}

func TestResampleWindows(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 0, MB: 10}, {T: 300, MB: 40}, {T: 450, MB: 20}})
	maxs, avgs, err := tr.Resample(300, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(maxs) != 2 || len(avgs) != 2 {
		t.Fatalf("windows = %d/%d, want 2/2", len(maxs), len(avgs))
	}
	if maxs[0] != 10 || maxs[1] != 40 {
		t.Fatalf("maxs = %v, want [10 40]", maxs)
	}
	if avgs[0] != 10 {
		t.Fatalf("avg[0] = %d, want 10", avgs[0])
	}
	// Window 2: 150s@40 + 150s@20 = 30 avg.
	if avgs[1] != 30 {
		t.Fatalf("avg[1] = %d, want 30", avgs[1])
	}
	if _, _, err := tr.Resample(0, 600); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("bad window: err = %v, want ErrBadWindow", err)
	}
}

func TestRDPRemovesCollinear(t *testing.T) {
	// Perfectly linear ramp: everything except endpoints is removable.
	var pts []Point
	for i := 0; i <= 10; i++ {
		pts = append(pts, Point{T: float64(i * 10), MB: int64(i * 100)})
	}
	tr := mustTrace(t, pts)
	red := tr.RDP(1)
	if red.Len() != 2 {
		t.Fatalf("reduced len = %d, want 2 (endpoints only)", red.Len())
	}
}

func TestRDPKeepsSpikes(t *testing.T) {
	tr := mustTrace(t, []Point{
		{T: 0, MB: 100}, {T: 10, MB: 100}, {T: 20, MB: 5000}, {T: 30, MB: 100}, {T: 40, MB: 100},
	})
	red := tr.RDP(50)
	found := false
	for _, p := range red.Points() {
		if p.MB == 5000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("spike dropped by RDP: %+v", red.Points())
	}
}

func TestRDPNoopCases(t *testing.T) {
	tr := mustTrace(t, []Point{{T: 0, MB: 1}, {T: 10, MB: 2}})
	if got := tr.RDP(100); got.Len() != 2 {
		t.Fatalf("2-point trace must be unchanged, got %d points", got.Len())
	}
	if got := tr.RDP(0); got != tr {
		t.Fatal("eps<=0 must return the identical trace")
	}
}

// Property: RDP output is a subsequence of the input, keeps the endpoints,
// and every dropped point is within eps of the reconstruction.
func TestQuickRDPErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(200)
		pts := make([]Point, n)
		tm := 0.0
		for i := range pts {
			tm += 1 + rng.Float64()*100
			pts[i] = Point{T: tm, MB: rng.Int63n(100000)}
		}
		tr := MustNew(pts)
		eps := 1 + rng.Float64()*5000
		red := tr.RDP(eps)
		if red.Len() < 2 || red.Len() > tr.Len() {
			return false
		}
		rp := red.Points()
		if rp[0] != pts[0] || rp[len(rp)-1] != pts[n-1] {
			return false
		}
		// Subsequence check.
		j := 0
		for _, p := range rp {
			for j < n && pts[j] != p {
				j++
			}
			if j == n {
				return false
			}
		}
		// Error bound: each original point within eps of the linear
		// interpolation of the kept points.
		for _, p := range pts {
			k := sort.Search(len(rp), func(i int) bool { return rp[i].T >= p.T })
			if k < len(rp) && rp[k].T == p.T {
				continue // kept point, zero error
			}
			a, b := rp[k-1], rp[k]
			y := float64(a.MB) + (float64(b.MB)-float64(a.MB))*(p.T-a.T)/(b.T-a.T)
			if math.Abs(float64(p.MB)-y) > eps+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxIn over any window never exceeds Peak and is reached by At
// somewhere in the window (or at t0).
func TestQuickMaxInConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		pts := make([]Point, n)
		tm := 0.0
		for i := range pts {
			tm += 1 + rng.Float64()*10
			pts[i] = Point{T: tm, MB: rng.Int63n(1000)}
		}
		tr := MustNew(pts)
		for trial := 0; trial < 20; trial++ {
			t0 := rng.Float64() * tm
			t1 := t0 + rng.Float64()*tm
			m := tr.MaxIn(t0, t1)
			if m > tr.Peak() {
				return false
			}
			if m < tr.At(t0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling preserves the value sequence and the peak.
func TestQuickScalePreservesValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		pts := make([]Point, n)
		tm := 0.0
		for i := range pts {
			tm += 1 + rng.Float64()*10
			pts[i] = Point{T: tm, MB: rng.Int63n(1000)}
		}
		tr := MustNew(pts)
		to := 1 + rng.Float64()*1e6
		s, err := tr.Scale(to)
		if err != nil {
			return false
		}
		return s.Peak() == tr.Peak() && math.Abs(s.Duration()-to) < 1e-6*to
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
