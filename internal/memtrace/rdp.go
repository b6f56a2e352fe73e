package memtrace

// Ramer–Douglas–Peucker polyline simplification, used by the paper's trace
// pipeline to shrink per-job memory-usage traces before simulation.
//
// Because the x axis is time (seconds) and the y axis memory (MB), the usual
// perpendicular point-to-segment distance would mix units; we use the
// vertical deviation, the standard choice for time series, and document the
// tolerance in MB.

// RDP returns a simplified copy of the trace, in storage of exactly its
// length, in which every removed point deviates vertically by at most epsMB
// from the line joining the retained neighbours. The first and last points
// are always kept. epsMB <= 0 returns the trace unchanged.
func (tr *Trace) RDP(epsMB float64) *Trace {
	if epsMB <= 0 || len(tr.pts) <= 2 {
		return tr
	}
	keep := make([]bool, len(tr.pts))
	keep[0], keep[len(tr.pts)-1] = true, true
	rdpMark(tr.pts, 0, len(tr.pts)-1, epsMB, keep)
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

// rdpMark marks the points to keep between indices lo and hi (exclusive
// interior), recursing on the point of maximum vertical deviation. An
// explicit stack avoids deep recursion on very long traces.
func rdpMark(pts []Point, lo, hi int, eps float64, keep []bool) {
	type span struct{ lo, hi int }
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
