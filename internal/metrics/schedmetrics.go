package metrics

// Scheduling-quality metrics standard in the parallel job scheduling
// literature (Feitelson et al.), computed over per-job (wait, runtime)
// pairs.

// BoundedSlowdown returns the bounded slowdown of one job:
//
//	max(1, (wait + runtime) / max(runtime, tau))
//
// where tau bounds the denominator so very short jobs do not dominate the
// average (the customary tau is 10 s).
func BoundedSlowdown(wait, runtime, tau float64) float64 {
	if tau <= 0 {
		tau = 10
	}
	den := runtime
	if den < tau {
		den = tau
	}
	if den <= 0 {
		return 1
	}
	s := (wait + runtime) / den
	if s < 1 {
		return 1
	}
	return s
}

// JainFairness returns Jain's fairness index over a set of non-negative
// allocations: (Σx)² / (n·Σx²), which is 1 for perfectly equal values and
// 1/n when one value holds everything. An empty or all-zero input yields 0.
func JainFairness(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 || len(xs) == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
