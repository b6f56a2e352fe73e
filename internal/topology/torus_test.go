package topology

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0, 1, 1); !errors.Is(err, ErrBadDims) {
		t.Fatalf("err = %v, want ErrBadDims", err)
	}
	tor, err := New(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Size() != 64 {
		t.Fatalf("size = %d", tor.Size())
	}
}

func TestDesignCapacityAndShape(t *testing.T) {
	for _, nodes := range []int{1, 2, 7, 64, 100, 1024, 1490} {
		tor := Design(nodes)
		if tor.Size() < nodes {
			t.Fatalf("Design(%d) = %v: too small", nodes, tor)
		}
		// Near-cubic: largest dimension at most twice the smallest
		// (except trivial sizes).
		if nodes > 8 && tor.Z > 2*tor.X {
			t.Fatalf("Design(%d) = %v: not near-cubic", nodes, tor)
		}
		// No more than ~30 % overprovisioning of endpoints.
		if tor.Size() > nodes*13/10+8 {
			t.Fatalf("Design(%d) = %v: wasteful (%d endpoints)", nodes, tor, tor.Size())
		}
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	tor := Torus{X: 3, Y: 4, Z: 5}
	for id := 0; id < tor.Size(); id++ {
		x, y, z := tor.Coord(id)
		if got := tor.ID(x, y, z); got != id {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", id, x, y, z, got)
		}
	}
	// Wraparound addressing.
	if tor.ID(-1, 0, 0) != tor.ID(2, 0, 0) {
		t.Fatal("negative wraparound broken")
	}
	if tor.ID(3, 4, 5) != tor.ID(0, 0, 0) {
		t.Fatal("positive wraparound broken")
	}
}

func TestHops(t *testing.T) {
	tor := Torus{X: 4, Y: 4, Z: 4}
	a := tor.ID(0, 0, 0)
	cases := []struct {
		x, y, z int
		want    int
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{3, 0, 0, 1}, // wraparound: 3 is 1 hop the other way
		{2, 0, 0, 2},
		{2, 2, 2, 6}, // opposite corner = diameter
		{1, 1, 1, 3},
	}
	for _, tc := range cases {
		b := tor.ID(tc.x, tc.y, tc.z)
		if got := tor.Hops(a, b); got != tc.want {
			t.Errorf("Hops(origin, (%d,%d,%d)) = %d, want %d", tc.x, tc.y, tc.z, got, tc.want)
		}
	}
	if tor.Diameter() != 6 {
		t.Fatalf("diameter = %d, want 6", tor.Diameter())
	}
}

func TestHopsSymmetricAndTriangle(t *testing.T) {
	tor := Design(100)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		a, b, c := rng.Intn(tor.Size()), rng.Intn(tor.Size()), rng.Intn(tor.Size())
		if tor.Hops(a, b) != tor.Hops(b, a) {
			t.Fatal("hops not symmetric")
		}
		if tor.Hops(a, c) > tor.Hops(a, b)+tor.Hops(b, c) {
			t.Fatal("triangle inequality violated")
		}
		if tor.Hops(a, b) > tor.Diameter() {
			t.Fatal("distance beyond diameter")
		}
	}
}

func TestAvgHops(t *testing.T) {
	// Exact check by enumeration on a small torus.
	tor := Torus{X: 3, Y: 3, Z: 2}
	var sum, pairs float64
	for a := 0; a < tor.Size(); a++ {
		for b := 0; b < tor.Size(); b++ {
			if a == b {
				continue
			}
			sum += float64(tor.Hops(a, b))
			pairs++
		}
	}
	want := sum / pairs
	if got := tor.AvgHops(); got != want {
		t.Fatalf("AvgHops = %g, want enumerated %g", got, want)
	}
	if (Torus{X: 1, Y: 1, Z: 1}).AvgHops() != 0 {
		t.Fatal("single-node torus must have zero mean distance")
	}
}

func TestRankByHops(t *testing.T) {
	tor := Torus{X: 8, Y: 1, Z: 1}
	from := 0
	ranked := tor.RankByHops(from, []int{4, 1, 7, 2})
	// Distances: 4→4, 1→1, 7→1 (wrap), 2→2. Ties by ID: 1 before 7.
	want := []int{1, 7, 2, 4}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("ranked = %v, want %v", ranked, want)
		}
	}
	// Input must not be mutated.
	orig := []int{4, 1, 7, 2}
	tor.RankByHops(from, orig)
	if orig[0] != 4 {
		t.Fatal("RankByHops mutated its input")
	}
}

func TestBisectionLinks(t *testing.T) {
	if got := (Torus{X: 4, Y: 4, Z: 4}).BisectionLinks(); got != 32 {
		t.Fatalf("4x4x4 bisection = %d, want 32", got)
	}
	if got := (Torus{X: 1, Y: 1, Z: 1}).BisectionLinks(); got != 0 {
		t.Fatalf("trivial torus bisection = %d, want 0", got)
	}
	// The cut goes through the largest dimension.
	if got := (Torus{X: 2, Y: 2, Z: 8}).BisectionLinks(); got != 8 {
		t.Fatalf("2x2x8 bisection = %d, want 2·(2·2)=8", got)
	}
}

// Property: Design is monotone in capacity and hop distances stay within
// the diameter for random node pairs.
func TestQuickDesignAndHops(t *testing.T) {
	f := func(rawNodes uint16, rawA, rawB uint16) bool {
		nodes := int(rawNodes)%2000 + 1
		tor := Design(nodes)
		if tor.Size() < nodes {
			return false
		}
		a := int(rawA) % tor.Size()
		b := int(rawB) % tor.Size()
		h := tor.Hops(a, b)
		if h < 0 || h > tor.Diameter() {
			return false
		}
		return (h == 0) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// RankByHops orders candidates by hop distance from node from (ties by
// candidate ID), the rule the nearest-first lender order applies to hops.
func (t Torus) RankByHops(from int, candidates []int) []int {
	out := make([]int, len(candidates))
	copy(out, candidates)
	sort.Slice(out, func(i, j int) bool {
		hi, hj := t.Hops(from, out[i]), t.Hops(from, out[j])
		if hi != hj {
			return hi < hj
		}
		return out[i] < out[j]
	})
	return out
}
