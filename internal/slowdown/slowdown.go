// Package slowdown implements the remote-memory contention model used by the
// paper's simulator (after Zacarias, Nishtala, Carpenter, CF'20 and the
// multi-node extension in ICPADS'21).
//
// Each application is characterised by
//
//   - a sensitivity curve, mapping remote-memory bandwidth contention to a
//     performance penalty, and
//   - a contentiousness figure, the remote bandwidth the application drives
//     at full performance.
//
// The model considers only remote-memory bandwidth: remote accesses bypass
// the local cache hierarchy in the target system, so local cache contention
// is out of scope. The simulator recomputes contention whenever any job's
// memory placement changes:
//
//	pressure ρ   = Σ_jobs Σ_nodes contentiousness·remoteFraction / fabricBW
//	node slowdown = 1 + remoteFraction · penalty(ρ)
//	job slowdown  = max over the job's nodes (bulk-synchronous jobs run at
//	                the pace of their slowest node)
//
// A job with no remote memory has slowdown exactly 1. Application profiling
// is an input to the *simulation* only — the resource-management policy
// never sees profiles, matching the paper's production design.
package slowdown

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CurvePoint is one knot of a sensitivity curve.
type CurvePoint struct {
	Pressure float64 // fabric bandwidth utilisation, 0..1+ (can exceed 1 when oversubscribed)
	Penalty  float64 // fractional runtime increase at full remote placement
}

// Curve is a piecewise-linear sensitivity curve, sorted by Pressure.
type Curve []CurvePoint

// ErrBadCurve reports an invalid sensitivity curve.
var ErrBadCurve = errors.New("slowdown: invalid sensitivity curve")

// Validate checks that the curve is non-empty, sorted, and non-negative.
func (c Curve) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("%w: empty", ErrBadCurve)
	}
	for i, p := range c {
		if p.Pressure < 0 || p.Penalty < 0 {
			return fmt.Errorf("%w: negative knot %d", ErrBadCurve, i)
		}
		if i > 0 && c[i-1].Pressure >= p.Pressure {
			return fmt.Errorf("%w: knots not strictly increasing at %d", ErrBadCurve, i)
		}
	}
	return nil
}

// Penalty evaluates the curve at pressure rho with linear interpolation,
// clamping to the first/last knot outside the curve's range.
func (c Curve) Penalty(rho float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if rho <= c[0].Pressure {
		return c[0].Penalty
	}
	if rho >= c[len(c)-1].Pressure {
		return c[len(c)-1].Penalty
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].Pressure >= rho })
	a, b := c[i-1], c[i]
	f := (rho - a.Pressure) / (b.Pressure - a.Pressure)
	return a.Penalty + f*(b.Penalty-a.Penalty)
}

// Profile characterises one profiled application from the pool used to match
// trace jobs (paper §3.2, Steps 2–3).
type Profile struct {
	Name         string
	Nodes        int     // size at which the app was profiled
	RuntimeSec   float64 // runtime at which the app was profiled
	BandwidthGBs float64 // contentiousness: remote BW demand per node at full performance
	ReadFrac     float64 // read share of memory traffic (informational)
	Sens         Curve   // sensitivity to fabric contention
}

// Model holds the fabric parameters. The interconnect is a torus sized per
// node, so aggregate remote bandwidth scales linearly with node count.
type Model struct {
	PerNodeBWGBs float64 // remote-memory bandwidth provisioned per node
	Nodes        int
}

// NewModel returns a contention model for a fabric of n nodes with the given
// per-node remote bandwidth (GB/s).
func NewModel(n int, perNodeBW float64) *Model {
	return &Model{PerNodeBWGBs: perNodeBW, Nodes: n}
}

// FabricBW returns the aggregate remote-memory bandwidth of the system.
func (m *Model) FabricBW() float64 { return m.PerNodeBWGBs * float64(m.Nodes) }

// Pressure converts aggregate remote traffic (GB/s) into fabric utilisation.
func (m *Model) Pressure(totalRemoteTraffic float64) float64 {
	bw := m.FabricBW()
	if bw <= 0 {
		return 0
	}
	return totalRemoteTraffic / bw
}

// PressureBW converts remote traffic (GB/s) into utilisation of an explicit
// bandwidth budget. It is Model.Pressure generalised to a caller-chosen
// scope: the partitioned contention model evaluates it once per pressure
// domain, with the domain's aggregate bandwidth as the budget. With the
// whole fabric's bandwidth it is bit-identical to Model.Pressure.
func PressureBW(traffic, bw float64) float64 {
	if bw <= 0 {
		return 0
	}
	return traffic / bw
}

// NodeTraffic returns the remote traffic one node of the app injects when a
// fraction remoteFrac of its working set is remote.
func NodeTraffic(p *Profile, remoteFrac float64) float64 {
	return p.BandwidthGBs * clamp01(remoteFrac)
}

// MaxWeightedFrac reduces a job's per-node weighted remote fractions to the
// single number its slowdown depends on: the largest contention-relevant
// fraction. NaN and non-positive entries contribute nothing (their node
// slowdown is exactly 1), so they reduce to zero.
//
// The simulator caches this per running job and re-derives it only when that
// job's allocation changes; JobSlowdownFromMax then recomputes the slowdown
// for a new pressure without revisiting the nodes.
func MaxWeightedFrac(weightedFracs []float64) float64 {
	m := 0.0
	for _, wf := range weightedFracs {
		if wf > m { // NaN and negatives fail the comparison
			m = wf
		}
	}
	return m
}

// JobSlowdownFromMax returns the job slowdown given only the maximum weighted
// remote fraction (as produced by MaxWeightedFrac). A bulk-synchronous job
// advances at the pace of its slowest node, so this is bit-identical to the
// maximum of the per-node slowdowns 1 + wf·penalty(rho) over the full
// fraction vector (JobSlowdownWeighted, the tests' reference). A weighted
// fraction (Σ lease·hopWeight / allocation) is not clamped at 1: leases
// several hops away legitimately cost more than an all-remote single-hop
// placement. For a non-negative penalty,
// 1 + wf·penalty is monotone in wf under IEEE-754 round-to-nearest, so the
// per-node maximum is attained at the maximum fraction; the final
// max-with-1 guards the degenerate negative-penalty case the same way the
// reference's running maximum (seeded at 1) does. A property test asserts
// the bit equality over randomized curves and fraction vectors.
func JobSlowdownFromMax(p *Profile, maxFrac, rho float64) float64 {
	if maxFrac <= 0 || math.IsNaN(maxFrac) {
		return 1
	}
	if v := 1 + maxFrac*p.Sens.Penalty(rho); v > 1 {
		return v
	}
	return 1
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	if math.IsNaN(x) {
		return 0
	}
	return x
}
