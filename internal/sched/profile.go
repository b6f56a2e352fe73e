package sched

import (
	"math"
	"sort"
)

// Profile is a step function of available resources over future time, used
// by conservative backfill: every queued job gets a reservation carved out
// of the profile, so no backfilled job can delay any earlier job.
//
// The profile starts from the current availability, gains resources at
// running jobs' conservative completion times, and loses them over the
// windows reserved for queued jobs.
type Profile struct {
	times []float64   // breakpoints, ascending; times[0] is "now"
	avail []Resources // availability in [times[i], times[i+1])
}

// NewProfile builds a profile from current availability and future
// releases (running jobs' conservative ends, in ascending At order).
func NewProfile(now float64, current Resources, releases Releases) *Profile {
	p := &Profile{}
	p.Reset(now, current, releases)
	return p
}

// Reset rebuilds the profile in place from current availability and future
// releases, reusing the breakpoint buffers from previous builds.
// Conservative backfill constructs a profile every scheduling pass; pooling
// one Profile makes that pass allocation-free at steady state. Results are
// identical to NewProfile: the arithmetic is all integer Resources math, so
// buffer reuse cannot perturb anything.
//
// The releases arrive in ascending At order, and an overdue one (At before
// now) counts as available now, so each release lands on the last
// breakpoint or opens a new one after it: the profile is built in one pass
// with no search. Ties in At fold into one breakpoint with commutative
// integer adds, so their order is immaterial.
//
//dmp:hotpath
func (p *Profile) Reset(now float64, current Resources, releases Releases) {
	p.times = append(p.times[:0], now)
	p.avail = append(p.avail[:0], current)
	last := 0
	for i, n := 0, releases.Len(); i < n; i++ {
		r := releases.Release(i)
		if r.At > p.times[last] {
			p.times = append(p.times, r.At)
			p.avail = append(p.avail, p.avail[last])
			last++
		}
		p.avail[last] = p.avail[last].Add(r.Res)
	}
}

// splitAt inserts a breakpoint at t if none exists and returns its index.
// A t before the profile start is clamped: nothing is inserted, and the
// index is 0.
//
//dmp:hotpath
func (p *Profile) splitAt(t float64) int {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	if i == 0 {
		// t before the profile start: clamp (callers pass t >= now).
		return 0
	}
	p.times = append(p.times, 0)
	copy(p.times[i+1:], p.times[i:])
	p.times[i] = t
	p.avail = append(p.avail, Resources{})
	copy(p.avail[i+1:], p.avail[i:])
	p.avail[i] = p.avail[i-1]
	return i
}

// EarliestFit returns the earliest time ≥ after at which demand d fits for
// the whole duration. It returns +Inf when the demand never fits (even on
// the final, steady-state segment). Neither after nor duration is NaN.
//
// The candidate starts are after and every later breakpoint. A candidate
// start s needs d to fit on each segment i that [s, s+duration) overlaps:
// from the segment that holds s, up to the last one with times[i] <
// s+duration. A zero duration that starts on a breakpoint overlaps none.
// When segment i does not fit, every candidate up to times[i] still
// overlaps it, so the next candidate is times[i+1], whose segment is i+1:
// the search is one binary search and one forward sweep over the profile.
//
//dmp:hotpath
func (p *Profile) EarliestFit(d Demand, after, duration float64) float64 {
	if after < p.times[0] {
		after = p.times[0]
	}
	i := sort.SearchFloat64s(p.times, after)
	if i == len(p.times) || p.times[i] != after {
		i-- // after lies inside segment i-1
	}
	start, end := after, after+duration
	for ; i < len(p.times) && p.times[i] < end; i++ {
		if d.Fits(p.avail[i]) {
			continue
		}
		if i+1 == len(p.times) {
			return math.Inf(1)
		}
		start = p.times[i+1]
		end = start + duration
	}
	return start
}

// Reserve subtracts demand d from the profile over [start, start+duration).
// Reservations may drive a segment negative only if the caller reserves
// without checking EarliestFit first; conservative backfill never does.
// Only the segments between the window's two breakpoints are touched.
//
//dmp:hotpath
func (p *Profile) Reserve(d Demand, start, duration float64) {
	end := start + duration
	if start < p.times[0] {
		start = p.times[0]
	}
	first, last := p.splitAt(start), len(p.times)
	if !math.IsInf(end, 1) {
		last = p.splitAt(end) // an end at or before start: last <= first
	}
	for i := first; i < last; i++ {
		p.avail[i] = subtract(p.avail[i], d)
	}
}

// subtract removes a demand's footprint from an availability vector. The
// node share is taken from large nodes first when the demand requires
// them, otherwise from normal nodes with large nodes as overflow —
// mirroring how placement consumes the cheapest adequate nodes first.
//
//dmp:hotpath
func subtract(r Resources, d Demand) Resources {
	n := d.Nodes
	if d.LargeOnly {
		r.LargeNodes -= n
	} else {
		fromNormal := n
		if fromNormal > r.NormalNodes {
			fromNormal = r.NormalNodes
		}
		r.NormalNodes -= fromNormal
		r.LargeNodes -= n - fromNormal
	}
	if d.UsePool {
		r.FreeMB -= d.PooledMB
	}
	return r
}
