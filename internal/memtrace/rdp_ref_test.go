package memtrace

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rdpMarkRef is the plain Ramer–Douglas–Peucker scan: every span rescans all
// of its interior points. It is the oracle the block-pruned rdpMark must
// match kept point for kept point.
func rdpMarkRef(pts []Point, lo, hi int, eps float64, keep []bool) {
	stack := []span{{lo, hi}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		a, b := pts[s.lo], pts[s.hi]
		dt := b.T - a.T
		var worst float64
		worstIdx := -1
		for i := s.lo + 1; i < s.hi; i++ {
			// Interpolated value of the chord at pts[i].T.
			y := float64(a.MB) + (float64(b.MB)-float64(a.MB))*(pts[i].T-a.T)/dt
			d := float64(pts[i].MB) - y
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
				worstIdx = i
			}
		}
		if worst > eps && worstIdx >= 0 {
			keep[worstIdx] = true
			stack = append(stack, span{s.lo, worstIdx}, span{worstIdx, s.hi})
		}
	}
}

// checkRDPSpan runs both scans over pts[lo..hi] and fails on the first kept
// index where they disagree.
func checkRDPSpan(t testing.TB, what string, pts []Point, lo, hi int, eps float64) {
	t.Helper()
	got, want := make([]bool, len(pts)), make([]bool, len(pts))
	rdpMark(pts, eps, got, span{lo, hi})
	rdpMarkRef(pts, lo, hi, eps, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d, span %d..%d, eps=%g): point %d kept=%v, reference kept=%v",
				what, len(pts), lo, hi, eps, i, got[i], want[i])
		}
	}
}

func checkRDP(t testing.TB, what string, pts []Point, eps float64) {
	t.Helper()
	checkRDPSpan(t, what, pts, 0, len(pts)-1, eps)
}

// ldmsShaped draws a raw series shaped like the synthetic Grizzly
// generator's: a mean-reverting walk around a base level with one flat
// plateau at the peak of up to n/4 samples.
func ldmsShaped(rng *rand.Rand, n int, peak int64) []Point {
	base := float64(peak) * (0.1 + 0.25*rng.Float64())
	peakStart := rng.Intn(n)
	peakLen := 1 + rng.Intn(n/4+1)
	pts := make([]Point, n)
	level := base
	for i := range pts {
		if i >= peakStart && i < peakStart+peakLen {
			level = float64(peak)
		} else {
			level += (base - level) * 0.1
			level += base * 0.05 * rng.NormFloat64()
			level = math.Max(1, math.Min(level, float64(peak)))
		}
		pts[i] = Point{T: float64(i) * 10, MB: int64(level)}
	}
	pts[peakStart].MB = peak
	return pts
}

func TestRDPMatchesReferenceOnGeneratorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(20000)
		if trial%3 == 0 {
			n = 2 + rng.Intn(300)
		}
		peak := 1 + rng.Int63n(128*1024)
		pts := ldmsShaped(rng, n, peak)
		for _, frac := range []float64{0.02, 0.002, 0.2} {
			checkRDP(t, "generator-shaped", pts, frac*float64(peak))
		}
	}
}

func TestRDPMatchesReferenceOnAdversarialShapes(t *testing.T) {
	series := func(n int, mb func(i int) int64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{T: float64(i), MB: mb(i)}
		}
		return pts
	}
	cases := map[string][]Point{
		"two points":   series(2, func(i int) int64 { return int64(i * 7) }),
		"three points": series(3, func(i int) int64 { return int64(i%2) * 50 }),
		"constant":     series(1000, func(int) int64 { return 42 }),
		// Equal ends make the chord flat; the maximum is tied at many
		// indices, in one block and across blocks, so only the first may win.
		"flat chord, tied maxima": series(500, func(i int) int64 {
			if i%37 == 5 || i == 6 || i == 7 {
				return 900
			}
			return 100
		}),
		"long plateau": series(4000, func(i int) int64 {
			if i >= 700 && i < 1700 {
				return 5000
			}
			return 100 + int64(i%13)
		}),
		// Maxima sit on block edges: the first and last point of a block.
		"block edges": series(33*32, func(i int) int64 {
			switch i % 32 {
			case 0:
				return 800 + int64(i/32)
			case 31:
				return 800 + int64(i/64)
			}
			return 200
		}),
		"sawtooth ties": series(700, func(i int) int64 { return int64(i % 3) }),
		// Values beyond 2^53 round on conversion to float64.
		"huge values": series(600, func(i int) int64 {
			return math.MaxInt64/2 + int64(i%17)*1024 + int64(i*i%5)
		}),
	}
	// A last point at +Inf makes every interior chord value the left end's.
	inf := series(300, func(i int) int64 { return int64((i * 7919) % 1000) })
	inf[len(inf)-1].T = math.Inf(1)
	cases["infinite last time"] = inf
	// Timestamps so far apart that the chord's product overflows.
	far := series(300, func(i int) int64 { return int64((i * 104729) % 1000000007) })
	for i := range far {
		far[i].T = float64(i) * 1e306
	}
	cases["overflowing chord"] = far
	for name, pts := range cases {
		for _, eps := range []float64{0.5, 1, 10, 1000, 1e300} {
			checkRDP(t, name, pts, eps)
		}
	}
}

// TestRDPMatchesReferenceOnAlignedSpans drives rdpMark on spans whose
// interiors hold exactly 1–3 whole blocks, and on every offset around them,
// so the head and tail partial blocks take every width.
func TestRDPMatchesReferenceOnAlignedSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		pts := ldmsShaped(rng, 8*rdpBlock, 1000+rng.Int63n(1<<20))
		if trial%2 == 1 {
			for i := range pts { // small alphabet: many ties
				pts[i].MB = int64(rng.Intn(3))
			}
		}
		for blocks := 1; blocks <= 3; blocks++ {
			for lo := rdpBlock - 2; lo <= 2*rdpBlock; lo++ {
				for _, extra := range []int{-1, 0, 1, 2, rdpBlock - 1} {
					hi := lo + blocks*rdpBlock + 1 + extra
					if hi >= len(pts) || hi-lo < 2 {
						continue
					}
					for _, eps := range []float64{0.1, 1, 50} {
						checkRDPSpan(t, "aligned span", pts, lo, hi, eps)
					}
				}
			}
		}
	}
}

// TestRDPKeepKeepsThePeak reduces generator-shaped series split at their
// exact peak sample, at tolerances wide enough to flatten the whole peak
// plateau. The kept sample must survive, the reduced peak must be the raw
// one, and each side must keep exactly what the reference keeps on its own.
func TestRDPKeepKeepsThePeak(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3000)
		peak := 1 + rng.Int63n(128*1024)
		pts := ldmsShaped(rng, n, peak)
		at := slices.IndexFunc(pts, func(p Point) bool { return p.MB == peak })
		tr := MustNew(pts)
		for _, frac := range []float64{0.02, 0.5, 2} {
			eps := frac * float64(peak)
			got := tr.RDPKeep(eps, at)
			if got.Peak() != peak || !slices.Contains(got.Points(), pts[at]) {
				t.Fatalf("n=%d, eps=%g: reduced peak %d, raw %d; sample %d kept: %v",
					n, eps, got.Peak(), peak, at, slices.Contains(got.Points(), pts[at]))
			}
			want := make([]bool, n)
			want[0], want[at], want[n-1] = true, true, true
			rdpMarkRef(pts, 0, at, eps, want)
			rdpMarkRef(pts, at, n-1, eps, want)
			var wantPts []Point
			for i, k := range want {
				if k {
					wantPts = append(wantPts, pts[i])
				}
			}
			if !slices.Equal(got.Points(), wantPts) {
				t.Fatalf("n=%d, eps=%g, at=%d: kept %d points, the split reference %d", n, eps, at, got.Len(), len(wantPts))
			}
		}
	}
}

// fuzzPoints decodes bytes into a valid trace: each byte pair is a time step
// of 1–8 (repeated steps give collinear runs and tied deviations) and a
// memory value scaled by 2^shift.
func fuzzPoints(data []byte, shift uint8) []Point {
	pts := make([]Point, 0, len(data)/2)
	tm := 0.0
	for i := 0; i+1 < len(data); i += 2 {
		tm += float64(1 + data[i]%8)
		pts = append(pts, Point{T: tm, MB: int64(data[i+1]) << (shift % 56)})
	}
	return pts
}

// FuzzRDP requires the block-pruned scan to keep exactly the points the
// plain reference keeps.
func FuzzRDP(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 66, 200, 800} {
		data := make([]byte, 2*n)
		rng.Read(data)
		f.Add(data, 1.0, uint8(0))
		f.Add(data, 100.0, uint8(20))
	}
	flat := make([]byte, 2*300)
	for i := 1; i < len(flat); i += 2 {
		if i%74 == 11 {
			flat[i] = 200
		}
	}
	f.Add(flat, 0.5, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, eps float64, shift uint8) {
		pts := fuzzPoints(data, shift)
		if len(pts) < 3 || !(eps > 0) {
			return
		}
		checkRDP(t, "fuzz", pts, eps)
	})
}

// BenchmarkRDP reduces generator-shaped raw series at the synthetic Grizzly
// tolerance (2 % of peak): the reduction every dataset job pays.
func BenchmarkRDP(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	traces := make([]*Trace, 50)
	eps := make([]float64, len(traces))
	for i := range traces {
		peak := 1 + rng.Int63n(128*1024)
		traces[i] = MustNew(ldmsShaped(rng, 2+rng.Intn(20000), peak))
		eps[i] = 0.02 * float64(peak)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, tr := range traces {
			tr.RDP(eps[k])
		}
	}
}
