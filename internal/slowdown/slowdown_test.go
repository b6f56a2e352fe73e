package slowdown

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCurveValidate(t *testing.T) {
	if err := CurveStream.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Curve{}).Validate(); err == nil {
		t.Fatal("empty curve passed validation")
	}
	if err := (Curve{{0, 0.1}, {0, 0.2}}).Validate(); err == nil {
		t.Fatal("non-increasing knots passed validation")
	}
	if err := (Curve{{0, -0.1}}).Validate(); err == nil {
		t.Fatal("negative penalty passed validation")
	}
}

func TestCurvePenaltyInterpolation(t *testing.T) {
	c := Curve{{0, 0}, {1, 10}}
	cases := []struct{ rho, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {2, 10},
	}
	for _, tc := range cases {
		if got := c.Penalty(tc.rho); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Penalty(%g) = %g, want %g", tc.rho, got, tc.want)
		}
	}
	if got := (Curve{}).Penalty(0.5); got != 0 {
		t.Errorf("empty curve penalty = %g, want 0", got)
	}
}

func TestNodeSlowdownIdentities(t *testing.T) {
	p := &Profile{BandwidthGBs: 10, Sens: CurveStream}
	if got := NodeSlowdown(p, 0, 0.9); got != 1 {
		t.Fatalf("fully local slowdown = %g, want exactly 1", got)
	}
	// At remoteFrac 1, slowdown = 1 + penalty.
	want := 1 + CurveStream.Penalty(0.5)
	if got := NodeSlowdown(p, 1, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("full remote slowdown = %g, want %g", got, want)
	}
	// remoteFrac is clamped.
	if got := NodeSlowdown(p, 2.5, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("clamped slowdown = %g, want %g", got, want)
	}
}

func TestJobSlowdownIsMaxOverNodes(t *testing.T) {
	p := &Profile{BandwidthGBs: 10, Sens: Curve{{0, 1}, {1, 1}}}
	got := JobSlowdown(p, []float64{0, 0.2, 0.9, 0.5}, 0.5)
	want := 1 + 0.9*1.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("job slowdown = %g, want %g (slowest node)", got, want)
	}
	if got := JobSlowdown(p, nil, 0.5); got != 1 {
		t.Fatalf("no-node slowdown = %g, want 1", got)
	}
}

func TestModelPressure(t *testing.T) {
	m := NewModel(100, 10) // 1000 GB/s fabric
	if got := m.Pressure(500); got != 0.5 {
		t.Fatalf("pressure = %g, want 0.5", got)
	}
	if got := m.Pressure(2000); got != 2.0 {
		t.Fatalf("oversubscribed pressure = %g, want 2.0", got)
	}
	z := NewModel(0, 10)
	if got := z.Pressure(100); got != 0 {
		t.Fatalf("zero-fabric pressure = %g, want 0", got)
	}
}

func TestNodeTraffic(t *testing.T) {
	p := &Profile{BandwidthGBs: 8}
	if got := NodeTraffic(p, 0.25); got != 2 {
		t.Fatalf("traffic = %g, want 2", got)
	}
	if got := NodeTraffic(p, -1); got != 0 {
		t.Fatalf("negative frac traffic = %g, want 0", got)
	}
}

func TestDefaultPoolWellFormed(t *testing.T) {
	pool := DefaultPool()
	if len(pool) < 10 {
		t.Fatalf("pool too small: %d", len(pool))
	}
	seen := map[string]bool{}
	for _, p := range pool {
		if seen[p.Name] {
			t.Fatalf("duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Nodes <= 0 || p.RuntimeSec <= 0 || p.BandwidthGBs <= 0 {
			t.Fatalf("profile %q has non-positive parameters", p.Name)
		}
		if err := p.Sens.Validate(); err != nil {
			t.Fatalf("profile %q: %v", p.Name, err)
		}
	}
}

func TestMatcherExactAndNearest(t *testing.T) {
	m := NewMatcher(nil)
	for _, p := range m.Pool() {
		if got := m.Match(p.Nodes, p.RuntimeSec); got != p {
			t.Fatalf("Match(%d,%g) = %q, want itself %q", p.Nodes, p.RuntimeSec, got.Name, p.Name)
		}
	}
	// A 100-node day-long job should land on a large profile, not a
	// 1-node one.
	got := m.Match(100, 86400)
	if got.Nodes < 32 {
		t.Fatalf("Match(100, 1d) = %q (%d nodes), want a large profile", got.Name, got.Nodes)
	}
}

// dist2 is the squared match distance from a job to p, each logarithm
// computed on every call: Match's distance before the matcher kept each
// profile's side.
func dist2(nodes int, runtime float64, p *Profile) float64 {
	dn := math.Log2(float64(nodes)+1) - math.Log2(float64(p.Nodes)+1)
	dr := math.Log2(runtime+1) - math.Log2(p.RuntimeSec+1)
	return dn*dn + dr*dr
}

// matchRef is the test oracle for Match: the loop that recomputed both of
// every profile's logarithms on every call.
func matchRef(pool []*Profile, nodes int, runtimeSec float64) *Profile {
	best := pool[0]
	bestD := math.Inf(1)
	for _, p := range pool {
		if d := dist2(nodes, runtimeSec, p); d < bestD {
			bestD = d
			best = p
		}
	}
	return best
}

// Match, with each profile's logarithms kept, picks exactly the profile the
// recomputing loop picks: the operands are the same, so every distance and
// every tie is too. The queries cover the default pool's sizes and
// runtimes, exact pool points (zero distance) and ties between them.
func TestMatchMatchesReference(t *testing.T) {
	m := NewMatcher(nil)
	rng := rand.New(rand.NewSource(7))
	check := func(nodes int, rt float64) {
		if got, want := m.Match(nodes, rt), matchRef(m.Pool(), nodes, rt); got != want {
			t.Fatalf("Match(%d, %g) = %q, the reference picks %q", nodes, rt, got.Name, want.Name)
		}
	}
	for _, p := range m.Pool() {
		check(p.Nodes, p.RuntimeSec)
	}
	for i := 0; i < 20000; i++ {
		nodes := 1 + int(math.Exp(rng.Float64()*math.Log(4096)))
		rt := math.Exp(rng.Float64() * math.Log(30*86400))
		if i%4 == 0 {
			rt = math.Round(rt) // whole seconds, as traces mostly hold
		}
		check(nodes, rt)
	}
	// A profile pool with duplicate points: the tie goes to the earlier.
	twin := []*Profile{{Name: "a", Nodes: 4, RuntimeSec: 600}, {Name: "b", Nodes: 4, RuntimeSec: 600}, {Name: "c", Nodes: 16, RuntimeSec: 600}}
	mt := NewMatcher(twin)
	for _, q := range []struct {
		nodes int
		rt    float64
	}{{4, 600}, {8, 600}, {1, 1}, {1000, 1e6}} {
		if got, want := mt.Match(q.nodes, q.rt), matchRef(twin, q.nodes, q.rt); got != want {
			t.Fatalf("Match(%d, %g) over twins = %q, the reference picks %q", q.nodes, q.rt, got.Name, want.Name)
		}
	}
}

// Property: matching returns a pool member and is scale-monotone in the
// sense that the returned distance is minimal.
func TestQuickMatcherIsNearest(t *testing.T) {
	m := NewMatcher(nil)
	f := func(rawNodes uint8, rawRt uint32) bool {
		nodes := int(rawNodes)%128 + 1
		rt := float64(rawRt%1000000) + 1
		got := m.Match(nodes, rt)
		gd := dist2(nodes, rt, got)
		for _, p := range m.Pool() {
			if dist2(nodes, rt, p) < gd-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: penalty curves are monotone in pressure for the built-in
// archetypes, so higher contention never speeds a job up.
func TestQuickBuiltinCurvesMonotone(t *testing.T) {
	curves := []Curve{CurveStream, CurveBalanced, CurveCompute}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := curves[rng.Intn(len(curves))]
		a := rng.Float64() * 2
		b := rng.Float64() * 2
		if a > b {
			a, b = b, a
		}
		return c.Penalty(a) <= c.Penalty(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: JobSlowdownFromMax(MaxWeightedFrac(fracs)) is bit-identical to
// JobSlowdownWeighted(fracs) — not just approximately equal. The simulator's
// incremental refresh caches only the max weighted fraction per job, so the
// golden-digest determinism guarantees rest on exact float64 equality here,
// including NaN, negative, zero and >1 entries.
func TestQuickJobSlowdownFromMaxBitIdentical(t *testing.T) {
	curves := []Curve{CurveStream, CurveBalanced, CurveCompute, {{0, 0}}, {{0, 0}, {2, 3.7}}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Profile{BandwidthGBs: 1 + rng.Float64()*20, Sens: curves[rng.Intn(len(curves))]}
		n := rng.Intn(6)
		fracs := make([]float64, n)
		for i := range fracs {
			switch rng.Intn(5) {
			case 0:
				fracs[i] = 0
			case 1:
				fracs[i] = -rng.Float64()
			case 2:
				fracs[i] = math.NaN()
			case 3:
				fracs[i] = 1 + rng.Float64()*3 // hop-weighted fractions exceed 1
			default:
				fracs[i] = rng.Float64()
			}
		}
		rho := rng.Float64() * 2
		want := JobSlowdownWeighted(p, fracs, rho)
		got := JobSlowdownFromMax(p, MaxWeightedFrac(fracs), rho)
		return math.Float64bits(got) == math.Float64bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWeightedFracEdgeCases(t *testing.T) {
	if got := MaxWeightedFrac(nil); got != 0 {
		t.Fatalf("MaxWeightedFrac(nil) = %g, want 0", got)
	}
	if got := MaxWeightedFrac([]float64{math.NaN(), -3, 0}); got != 0 {
		t.Fatalf("MaxWeightedFrac(NaN,-3,0) = %g, want 0", got)
	}
	if got := MaxWeightedFrac([]float64{0.25, 1.5, 0.9}); got != 1.5 {
		t.Fatalf("MaxWeightedFrac = %g, want 1.5", got)
	}
}

// Property: slowdown is monotone in remote fraction and in pressure.
func TestQuickSlowdownMonotone(t *testing.T) {
	p := &Profile{BandwidthGBs: 10, Sens: CurveBalanced}
	f := func(r1, r2, rho1, rho2 float64) bool {
		r1, r2 = math.Abs(math.Mod(r1, 1)), math.Abs(math.Mod(r2, 1))
		rho1, rho2 = math.Abs(math.Mod(rho1, 2)), math.Abs(math.Mod(rho2, 2))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		if rho1 > rho2 {
			rho1, rho2 = rho2, rho1
		}
		if NodeSlowdown(p, r1, rho1) > NodeSlowdown(p, r2, rho1)+1e-12 {
			return false
		}
		return NodeSlowdown(p, r2, rho1) <= NodeSlowdown(p, r2, rho2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// JobSlowdown returns the slowdown of a multi-node job: the maximum of its
// per-node slowdowns, since bulk-synchronous applications advance at the
// pace of the slowest node.
func JobSlowdown(p *Profile, remoteFracs []float64, rho float64) float64 {
	s := 1.0
	for _, rf := range remoteFracs {
		if v := NodeSlowdown(p, rf, rho); v > s {
			s = v
		}
	}
	return s
}

// JobSlowdownWeighted is the multi-node maximum over distance-weighted
// per-node fractions.
func JobSlowdownWeighted(p *Profile, weightedFracs []float64, rho float64) float64 {
	s := 1.0
	for _, wf := range weightedFracs {
		if v := NodeSlowdownWeighted(p, wf, rho); v > s {
			s = v
		}
	}
	return s
}

// NodeSlowdownWeighted is one node's slowdown from a distance-weighted
// remote fraction: 1 + frac·penalty(rho), and exactly 1 without remote
// memory.
func NodeSlowdownWeighted(p *Profile, weightedFrac, rho float64) float64 {
	if weightedFrac <= 0 || math.IsNaN(weightedFrac) {
		return 1
	}
	return 1 + weightedFrac*p.Sens.Penalty(rho)
}

// NodeSlowdown returns the slowdown factor (≥1) for one node of the app.
func NodeSlowdown(p *Profile, remoteFrac, rho float64) float64 {
	rf := clamp01(remoteFrac)
	if rf == 0 {
		return 1
	}
	return 1 + rf*p.Sens.Penalty(rho)
}
