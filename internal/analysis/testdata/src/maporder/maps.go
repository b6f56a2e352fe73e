// Package maporder is the analysistest fixture for the maporder analyzer.
// Recorder and Engine are lightweight stand-ins for the real telemetry and
// sim types: the analyzer matches by type name so fixtures stay small.
package maporder

import "sort"

type Recorder struct{ n int }

func (r *Recorder) Emit(k string) { r.n++ }
func (r *Recorder) Now() float64  { return 0 }

type Engine struct{}

func (e *Engine) Schedule(at float64)                {}
func (e *Engine) ScheduleTag(at float64, tag uint64) {}
func (e *Engine) Now() float64                       { return 0 }

func appendUnsorted(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map m`
	}
	return keys
}

func collectThenSort(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k) // collect-then-sort idiom: allowed
	}
	sort.Ints(keys)
	return keys
}

func collectThenSortWrapped(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // sort.Sort(sort.IntSlice(keys)) below still counts
	}
	sort.Sort(sort.IntSlice(keys))
	return keys
}

func localSlice(m map[int]int) int {
	n := 0
	for k := range m {
		parts := make([]int, 0)
		parts = append(parts, k) // slice born inside the body dies each iteration
		n += len(parts)
	}
	return n
}

func emit(m map[int]int, r *Recorder) {
	for k := range m {
		r.Emit("job") // want `telemetry Emit emitted inside range over map m`
		_ = k
	}
}

func readOnly(m map[int]int, r *Recorder) float64 {
	last := 0.0
	for range m {
		last = r.Now() // read-only Recorder methods are harmless
	}
	return last
}

func floatAccum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation into sum inside range over map m`
	}
	return sum
}

func floatAccumSpelled(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want `floating-point accumulation into sum`
	}
	return sum
}

func intAccum(m map[int]int) int {
	n := 0
	for range m {
		n++ // integer addition commutes: fine
	}
	return n
}

func schedule(m map[int]float64, e *Engine) {
	for _, at := range m {
		e.Schedule(at) // want `Engine\.Schedule called inside range over map m`
	}
}

func scheduleTagged(m map[int]float64, e *Engine) {
	for id, at := range m {
		e.ScheduleTag(at, uint64(id)) // want `Engine\.ScheduleTag called inside range over map m`
	}
}

type point struct{ T float64 }

func bodyLocalField(m map[int][]point, off float64) {
	for _, pts := range m {
		for _, p := range pts {
			p.T -= off // field of a body-local copy: per-entry, order-independent
			_ = p
		}
	}
}

func allowlisted(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //dmplint:ignore maporder fixture: all values equal by construction
	}
	return sum
}
