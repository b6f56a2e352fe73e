// Package domainmerge is the analysistest fixture for the domainmerge
// analyzer. The sim struct stands in for core.Simulator; only the
// domain-indexed cache field is name-matched.
package domainmerge

type sim struct {
	domRho []float64
	nDom   int
}

// reset stores into single slots: pure writes are allowed anywhere.
func (s *sim) reset(doms []int) {
	for _, d := range doms {
		s.domRho[d] = 0
	}
}

// install replaces the whole cache: still a write, still fine.
func (s *sim) install(n int) {
	s.domRho = make([]float64, n)
	s.nDom = n
}

// leakRho hands one domain's pressure to a caller that may apply it to a
// job resident somewhere else entirely.
func (s *sim) leakRho(d int) float64 {
	return s.domRho[d] // want `per-domain contention state domRho read in leakRho, which is not a merge step`
}

// skipIdle consults the cache outside the rebuild step.
func (s *sim) skipIdle(d int) bool {
	if s.domRho[d] == 0 { // want `per-domain contention state domRho read in skipIdle`
		return true
	}
	return false
}

// accumulate is a compound assignment: it reads the old slot before
// storing, so it is a read despite being spelled like a write.
func (s *sim) accumulate(d int, t float64) {
	s.domRho[d] += t // want `per-domain contention state domRho read in accumulate`
}

// rebuild is the sanctioned merge step: annotated, it may read the cache
// while re-deriving it from scratch.
//
//dmp:domainmerge
func (s *sim) rebuild(doms []int, traffic []float64) {
	for _, d := range doms {
		if s.domRho[d] == traffic[d]/4 {
			continue
		}
		s.domRho[d] = traffic[d] / 4
	}
}

// worst folds rho across the whole domain set — the merge the directive
// exists for.
//
//dmp:domainmerge
func (s *sim) worst(doms []int) float64 {
	max := 0.0
	for _, d := range doms {
		if s.domRho[d] > max {
			max = s.domRho[d]
		}
	}
	return max
}

// writesOnly carries the directive but never reads domain state: the stale
// annotation is itself reported.
//
//dmp:domainmerge
func (s *sim) writesOnly(d int) { // want `stale //dmp:domainmerge on writesOnly`
	s.domRho[d] = 0
}

// allowlisted pins the suppression path: an ignored read must stay silent.
func (s *sim) allowlisted(d int) float64 {
	return s.domRho[d] //dmplint:ignore domainmerge fixture: read feeds a domain-local report, never another domain
}
