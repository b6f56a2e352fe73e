package memtrace

import "math"

// Ramer–Douglas–Peucker polyline simplification, used by the paper's trace
// pipeline to shrink per-job memory-usage traces before simulation.
//
// Because the x axis is time (seconds) and the y axis memory (MB), the usual
// perpendicular point-to-segment distance would mix units; we use the
// vertical deviation, the standard choice for time series, and document the
// tolerance in MB.

// rdpBlock is the width of the fixed blocks whose MB range lets rdpMark skip
// points that cannot hold a span's worst deviation.
const rdpBlock = 32

// RDP returns a simplified copy of the trace, in storage of exactly its
// length, in which every removed point deviates vertically by at most epsMB
// from the line joining the retained neighbours. The first and last points
// are always kept. epsMB <= 0 returns the trace unchanged.
func (tr *Trace) RDP(epsMB float64) *Trace { return tr.RDPKeep(epsMB, 0) }

// RDPKeep is RDP that keeps the point at index at (0 <= at < Len()) as
// well: the spans on either side of it are reduced separately, each keeping
// its ends, so that point survives whatever its deviation. At 0 it is RDP.
func (tr *Trace) RDPKeep(epsMB float64, at int) *Trace {
	if epsMB <= 0 || len(tr.pts) <= 2 {
		return tr
	}
	last := len(tr.pts) - 1
	keep := make([]bool, len(tr.pts))
	keep[0], keep[at], keep[last] = true, true, true
	rdpMark(tr.pts, epsMB, keep, span{0, at}, span{at, last})
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	// Exact-size storage: a reduced trace must not pin the raw series'
	// backing array.
	out := make([]Point, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, tr.pts[i])
		}
	}
	return &Trace{pts: out}
}

// span is a stretch of a trace between two kept points, lo and hi.
type span struct{ lo, hi int }

// rdpMark marks the points to keep inside each span (exclusive of its
// ends), recursing on the point of maximum vertical deviation. What a span
// keeps depends only on its ends, so the spans may be taken in any order.
// An explicit stack avoids deep recursion on very long traces.
//
// Each span's maximum is the one a plain left-to-right scan finds (first
// index of the maximum, strict >), but a whole block of rdpBlock points is
// skipped when it provably cannot beat the running maximum. The chord value
// y(t) is computed by a chain of monotone float operations in t, so over a
// block every computed y lies between the values at the block's two ends,
// and every computed |MB − y| is at most max(maxMB − yLo, yHi − minMB),
// again by monotonicity of rounded subtraction. A block whose bound is <=
// the running maximum holds no point that a strict > would take, so
// skipping it changes neither the index found nor the worst > eps test. A
// NaN bound is never <=, so its block is scanned.
func rdpMark(pts []Point, eps float64, keep []bool, spans ...span) {
	nb := len(pts) / rdpBlock
	minMB, maxMB := make([]float64, nb), make([]float64, nb)
	for k := range nb {
		blk := pts[k*rdpBlock : (k+1)*rdpBlock]
		mn, mx := blk[0].MB, blk[0].MB
		for _, p := range blk[1:] {
			if p.MB < mn {
				mn = p.MB
			}
			if p.MB > mx {
				mx = p.MB
			}
		}
		minMB[k], maxMB[k] = float64(mn), float64(mx)
	}

	stack := spans
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		c := chordOf(pts[s.lo], pts[s.hi])
		// Full blocks [first, end) lie strictly inside the span; the head
		// and tail partial blocks around them are always scanned.
		first := (s.lo + rdpBlock) / rdpBlock
		end := max(first, s.hi/rdpBlock)
		worst, worstIdx := c.scan(pts, s.lo+1, min(first*rdpBlock, s.hi), 0, -1)
		for k := first; k < end; k++ {
			yLo := c.at(pts[k*rdpBlock].T)
			yHi := c.at(pts[(k+1)*rdpBlock-1].T)
			if yHi < yLo {
				yLo, yHi = yHi, yLo
			}
			if maxMB[k]-yLo <= worst && yHi-minMB[k] <= worst {
				continue
			}
			worst, worstIdx = c.scan(pts, k*rdpBlock, (k+1)*rdpBlock, worst, worstIdx)
		}
		worst, worstIdx = c.scan(pts, end*rdpBlock, s.hi, worst, worstIdx)
		if worst > eps && worstIdx >= 0 {
			keep[worstIdx] = true
			stack = append(stack, span{s.lo, worstIdx}, span{worstIdx, s.hi})
		}
	}
}

// chord is the line joining two points of a trace.
type chord struct{ mb, dMB, t, dt float64 }

func chordOf(a, b Point) chord {
	return chord{float64(a.MB), float64(b.MB) - float64(a.MB), a.T, b.T - a.T}
}

// at is the chord's value at time t: the one formula every deviation in
// rdpMark is measured against.
func (c chord) at(t float64) float64 { return c.mb + c.dMB*(t-c.t)/c.dt }

// scan scans pts[from:to] left to right for a vertical deviation from the
// chord above worst and returns the new maximum and the first index holding
// it (idx unchanged when none is above worst).
func (c chord) scan(pts []Point, from, to int, worst float64, idx int) (float64, int) {
	for i := from; i < to; i++ {
		if d := math.Abs(float64(pts[i].MB) - c.at(pts[i].T)); d > worst {
			worst, idx = d, i
		}
	}
	return worst, idx
}
