// Package topology models the system interconnect as a 3D torus, the
// fabric the paper assumes for remote-memory traffic ("the interconnect is
// a torus, sized as recommended by prior work" — Solnushkin's automated
// torus design). It provides automated near-cubic sizing, wraparound hop
// distances, and distance-ranked lender selection for the topology-aware
// allocation ablation.
package topology

import (
	"errors"
	"fmt"
)

// Torus is a 3D torus with dimensions X×Y×Z. Node IDs are dense in
// [0, X·Y·Z), laid out x-major.
type Torus struct {
	X, Y, Z int
}

// ErrBadDims reports non-positive dimensions.
var ErrBadDims = errors.New("topology: dimensions must be positive")

// New validates explicit dimensions.
func New(x, y, z int) (Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return Torus{}, fmt.Errorf("%w: %d×%d×%d", ErrBadDims, x, y, z)
	}
	return Torus{X: x, Y: y, Z: z}, nil
}

// Design returns a near-cubic torus with capacity for at least nodes
// endpoints, following the SADDLE approach of minimising the diameter for
// the target size: dimensions are the most balanced factorisation of the
// smallest size ≥ nodes that admits one within a 2:1 aspect ratio.
func Design(nodes int) Torus {
	if nodes < 1 {
		nodes = 1
	}
	for size := nodes; ; size++ {
		if t, ok := balancedDims(size); ok {
			return t
		}
	}
}

// balancedDims finds the factorisation x≤y≤z of size minimising z-x,
// accepting it when z ≤ 2x (near-cubic) or when size is small.
func balancedDims(size int) (Torus, bool) {
	best := Torus{}
	found := false
	for x := 1; x*x*x <= size; x++ {
		if size%x != 0 {
			continue
		}
		rest := size / x
		for y := x; y*y <= rest; y++ {
			if rest%y != 0 {
				continue
			}
			z := rest / y
			t := Torus{X: x, Y: y, Z: z}
			if !found || (t.Z-t.X) < (best.Z-best.X) {
				best = t
				found = true
			}
		}
	}
	if !found {
		return Torus{}, false
	}
	if size <= 8 || best.Z <= 2*best.X {
		return best, true
	}
	return Torus{}, false
}

// Size returns the number of endpoints.
func (t Torus) Size() int { return t.X * t.Y * t.Z }

// Coord returns the (x, y, z) coordinate of node id.
func (t Torus) Coord(id int) (x, y, z int) {
	x = id % t.X
	y = (id / t.X) % t.Y
	z = id / (t.X * t.Y)
	return x, y, z
}

// ID returns the node id at (x, y, z), applying wraparound.
func (t Torus) ID(x, y, z int) int {
	x = mod(x, t.X)
	y = mod(y, t.Y)
	z = mod(z, t.Z)
	return x + y*t.X + z*t.X*t.Y
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// Hops returns the minimal routing distance between two nodes: the sum of
// per-dimension wraparound distances.
func (t Torus) Hops(a, b int) int {
	ax, ay, az := t.Coord(a)
	bx, by, bz := t.Coord(b)
	return ringDist(ax, bx, t.X) + ringDist(ay, by, t.Y) + ringDist(az, bz, t.Z)
}

func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := n - d; w < d {
		return w
	}
	return d
}

// Diameter returns the maximum hop distance between any two nodes.
func (t Torus) Diameter() int { return t.X/2 + t.Y/2 + t.Z/2 }

// AvgHops returns the exact mean hop distance between two distinct
// uniformly random nodes.
func (t Torus) AvgHops() float64 {
	n := t.Size()
	if n <= 1 {
		return 0
	}
	// Per-dimension mean ring distance over ordered pairs (including
	// self), then combined linearly and corrected for distinct pairs.
	mean := ringMean(t.X) + ringMean(t.Y) + ringMean(t.Z)
	// mean includes self-pairs (distance 0): scale to distinct pairs.
	return mean * float64(n) / float64(n-1)
}

// ringMean is the mean wraparound distance on a ring of n nodes over all
// ordered pairs including self-pairs.
func ringMean(n int) float64 {
	if n <= 1 {
		return 0
	}
	var sum int
	for d := 0; d < n; d++ {
		sum += ringDist(0, d, n)
	}
	return float64(sum) / float64(n)
}

// BisectionLinks returns the number of links crossing the worst-case
// bisection, a standard torus capacity figure (2 links per node pair on
// the cut plane of the largest dimension).
func (t Torus) BisectionLinks() int {
	// Cutting the largest dimension in half severs 2 × (area of the
	// cut plane) links because of the wraparound.
	maxDim := t.X
	area := t.Y * t.Z
	if t.Y > maxDim {
		maxDim = t.Y
		area = t.X * t.Z
	}
	if t.Z > maxDim {
		maxDim = t.Z
		area = t.X * t.Y
	}
	if maxDim == 1 {
		return 0
	}
	return 2 * area
}

func (t Torus) String() string {
	return fmt.Sprintf("%d×%d×%d torus (%d nodes, diameter %d)", t.X, t.Y, t.Z, t.Size(), t.Diameter())
}
