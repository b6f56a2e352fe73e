package sched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The sort-based references for the release walk. Before the simulator
// kept its running jobs in release order, ShadowTime copied the release
// list and sorted the copy, and Profile.Reset sorted its own copy and
// searched for each release's breakpoint. Both are kept here, verbatim in
// effect, as the oracles the ordered walks are held to. So are the
// profile's whole-profile scans: before EarliestFit became one forward
// sweep, it re-tested every candidate start against every segment, and
// Reserve walked every segment to find its window.

// releaseList is a release slice already in ascending At order.
type releaseList []Release

func (l releaseList) Len() int              { return len(l) }
func (l releaseList) Release(i int) Release { return l[i] }

// ordered returns a copy of rel in ascending At order; ties keep their
// order in rel.
func ordered(rel []Release) releaseList {
	out := slices.Clone(rel)
	slices.SortStableFunc(out, func(a, b Release) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		}
		return 0
	})
	return out
}

// shadowTimeRef is the copy-and-sort shadow time.
func shadowTimeRef(nowTime float64, now Resources, releases []Release, d Demand) float64 {
	if d.Fits(now) {
		return nowTime
	}
	rel := make([]Release, len(releases))
	copy(rel, releases)
	sort.Slice(rel, func(i, j int) bool { return rel[i].At < rel[j].At })
	avail := now
	for _, r := range rel {
		avail = avail.Add(r.Res)
		if d.Fits(avail) {
			if r.At < nowTime {
				return nowTime
			}
			return r.At
		}
	}
	return math.Inf(1)
}

// newProfileRef is the sorting profile build: sort a copy of the releases
// by At, then split the profile at each (clamped) release time and add the
// release to every segment from there on.
func newProfileRef(now float64, current Resources, releases []Release) *Profile {
	p := &Profile{times: []float64{now}, avail: []Resources{current}}
	rel := slices.Clone(releases)
	slices.SortFunc(rel, func(a, b Release) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		}
		return 0
	})
	for _, r := range rel {
		at := r.At
		if at < now {
			at = now
		}
		p.splitAt(at)
		i := p.indexFor(at)
		for k := i; k < len(p.avail); k++ {
			p.avail[k] = p.avail[k].Add(r.Res)
		}
	}
	return p
}

// fitsOverRef reports whether demand d fits continuously over [start,
// start+duration) given the profile.
func (p *Profile) fitsOverRef(d Demand, start, duration float64) bool {
	end := start + duration
	for i := range p.times {
		segStart := p.times[i]
		segEnd := math.Inf(1)
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		if segEnd <= start || segStart >= end {
			continue
		}
		if !d.Fits(p.avail[i]) {
			return false
		}
	}
	return true
}

// earliestFitRef is the quadratic EarliestFit: every candidate start is
// tested against the whole profile.
func (p *Profile) earliestFitRef(d Demand, after, duration float64) float64 {
	if after < p.times[0] {
		after = p.times[0]
	}
	// Candidate start times: `after` and every later breakpoint.
	if p.fitsOverRef(d, after, duration) {
		return after
	}
	for i := range p.times {
		t := p.times[i]
		if t <= after {
			continue
		}
		if p.fitsOverRef(d, t, duration) {
			return t
		}
	}
	return math.Inf(1)
}

// reserveRef is the whole-profile Reserve.
func (p *Profile) reserveRef(d Demand, start, duration float64) {
	end := start + duration
	if start < p.times[0] {
		start = p.times[0]
	}
	p.splitAt(start)
	if !math.IsInf(end, 1) {
		p.splitAt(end)
	}
	for i := range p.times {
		segStart := p.times[i]
		segEnd := math.Inf(1)
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		if segEnd <= start || segStart >= end {
			continue
		}
		p.avail[i] = subtract(p.avail[i], d)
	}
}

// indexFor returns the segment index covering time t (t >= times[0]).
func (p *Profile) indexFor(t float64) int {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	return i - 1
}

// countingReleases records the highest index a walk read.
type countingReleases struct {
	releaseList
	maxRead int
}

func (c *countingReleases) Release(i int) Release {
	c.maxRead = max(c.maxRead, i)
	return c.releaseList[i]
}

// randomReleases draws a release set with the shapes the simulator
// produces and a few it should never, to cover the walk's edges: At on a
// coarse grid so ties are common, some overdue (At < now), some releasing
// nothing at all.
func randomReleases(rng *rand.Rand, now float64) []Release {
	rel := make([]Release, rng.Intn(24))
	for i := range rel {
		rel[i].At = now + float64(rng.Intn(12)-3)*50
		if rng.Intn(5) == 0 {
			continue // releases nothing
		}
		rel[i].Res = Resources{
			NormalNodes: rng.Intn(4),
			LargeNodes:  rng.Intn(3),
			FreeMB:      rng.Int63n(3000),
		}
	}
	return rel
}

// randomDemand draws a demand under either policy family; about one in six
// can never be met, whatever is released.
func randomDemand(rng *rand.Rand) Demand {
	d := Demand{Nodes: rng.Intn(20)}
	switch rng.Intn(3) {
	case 0:
		d.LargeOnly = true
	case 1:
		d.UsePool = true
		d.PooledMB = rng.Int63n(30000)
	}
	if rng.Intn(6) == 0 {
		d.Nodes += 1000
	}
	return d
}

// TestReleaseOrderDifferential holds the ordered walks to the sort-based
// references over random release sets: the shadow time, the profile's
// breakpoints and availability, and EarliestFit answers on it must all be
// identical, and the shadow walk must read no release past its first fit.
func TestReleaseOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pooled := &Profile{} // reused across cases, as the simulator pools one
	for iter := 0; iter < 3000; iter++ {
		now := float64(rng.Intn(4)) * 100
		cur := Resources{NormalNodes: rng.Intn(4), LargeNodes: rng.Intn(2), FreeMB: rng.Int63n(2000)}
		rel := randomReleases(rng, now)
		// Ties in the walked sequence come in an order unrelated to the
		// reference's: shuffle before the stable sort.
		shuffled := slices.Clone(rel)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		seq := &countingReleases{releaseList: ordered(shuffled), maxRead: -1}

		for k := 0; k < 4; k++ {
			d := randomDemand(rng)
			seq.maxRead = -1
			got, want := ShadowTime(now, cur, seq, d), shadowTimeRef(now, cur, rel, d)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iter %d: shadow time %v, reference %v (now %v, cur %+v, d %+v, releases %+v)",
					iter, got, want, now, cur, d, rel)
			}
			// The walk reads releases up to the first one after which
			// the demand fits, and none when it fits now.
			avail, first := cur, -1
			for i := 0; !d.Fits(avail) && i < seq.Len(); i++ {
				avail, first = avail.Add(seq.releaseList[i].Res), i
			}
			if seq.maxRead != first {
				t.Fatalf("iter %d: shadow walk read up to release %d, first fit at %d", iter, seq.maxRead, first)
			}
		}

		pooled.Reset(now, cur, ordered(shuffled))
		ref := newProfileRef(now, cur, rel)
		if !slices.Equal(pooled.times, ref.times) || !slices.Equal(pooled.avail, ref.avail) {
			t.Fatalf("iter %d: profile %v %+v, reference %v %+v", iter, pooled.times, pooled.avail, ref.times, ref.avail)
		}
		for k := 0; k < 4; k++ {
			d := randomDemand(rng)
			after := now + float64(rng.Intn(8)-2)*40
			dur := float64(1 + rng.Intn(400))
			got, want := pooled.EarliestFit(d, after, dur), ref.earliestFitRef(d, after, dur)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iter %d: EarliestFit(%+v, %v, %v) = %v, reference %v", iter, d, after, dur, got, want)
			}
		}
	}
}

// TestProfileResetAllocationFree asserts a warm Reset reuses its buffers.
func TestProfileResetAllocationFree(t *testing.T) {
	var rel Releases = ordered(randomReleases(rand.New(rand.NewSource(3)), 0))
	p := &Profile{}
	reset := func() { p.Reset(0, Resources{NormalNodes: 2}, rel) }
	reset()
	if got := testing.AllocsPerRun(50, reset); got != 0 {
		t.Fatalf("warm Reset allocates %.1f per call, want 0", got)
	}
}

// FuzzShadowTime holds the ordered shadow walk to the copy-and-sort
// reference on arbitrary release sets. Each input byte quadruple is one
// release (At offset, normal nodes, large nodes, pool MB); the first four
// bytes are the demand.
func FuzzShadowTime(f *testing.F) {
	f.Add([]byte{3, 0, 1, 9, 10, 1, 0, 4, 10, 2, 1, 8, 5, 0, 0, 0})
	f.Add([]byte{200, 1, 0, 0, 0, 0, 0, 0, 255, 7, 7, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		byteAt := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		d := Demand{Nodes: byteAt(0) % 64, LargeOnly: byteAt(1)&1 == 1}
		if byteAt(1)&2 == 2 {
			d.UsePool, d.PooledMB = true, int64(byteAt(2))*int64(byteAt(3)+1)
		}
		const now = 100.0
		cur := Resources{NormalNodes: byteAt(3) % 4, FreeMB: int64(byteAt(2))}
		var rel []Release
		for i := 4; i+3 < len(data); i += 4 {
			rel = append(rel, Release{
				At:  float64(data[i]) - 28, // some overdue
				Res: Resources{NormalNodes: int(data[i+1] % 8), LargeNodes: int(data[i+2] % 4), FreeMB: int64(data[i+3]) * 16},
			})
		}
		got, want := ShadowTime(now, cur, ordered(rel), d), shadowTimeRef(now, cur, rel, d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("shadow time %v, reference %v (d %+v, cur %+v, releases %+v)", got, want, d, cur, rel)
		}
	})
}

// probeDurations are the reservation lengths the profile differentials
// draw: zero, short ones, ones that land on the release grid, and +Inf.
var probeDurations = []float64{0, 0.5, 1, 40, 50, 100, 120, 400, math.Inf(1)}

// probeStart picks a start for a query or a reservation on p: before the
// profile, on a breakpoint, just past one, between two, or past the last.
func probeStart(sel int, p *Profile) float64 {
	k := (sel / 5) % len(p.times)
	t := p.times[k]
	switch sel % 5 {
	case 0:
		return p.times[0] - 25
	case 1:
		return t
	case 2:
		return math.Nextafter(t, math.Inf(1))
	case 3:
		if k+1 < len(p.times) {
			return (t + p.times[k+1]) / 2
		}
		return t + 30
	}
	return p.times[len(p.times)-1] + 30
}

// checkSweepStep runs one query and one reservation on both profiles: the
// sweep's EarliestFit must return the reference's bits, and Reserve must
// leave the same breakpoints and availability. The reservation lands where
// the fit was found, as conservative backfill reserves, or, when atFit is
// false or the demand never fits, at the probed start, which may drive a
// segment negative.
func checkSweepStep(t *testing.T, sweep, ref *Profile, d Demand, after, dur float64, atFit bool) {
	t.Helper()
	got, want := sweep.EarliestFit(d, after, dur), ref.earliestFitRef(d, after, dur)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EarliestFit(%+v, %v, %v) = %v, reference %v (times %v, avail %+v)",
			d, after, dur, got, want, ref.times, ref.avail)
	}
	at := after
	if atFit && !math.IsInf(want, 1) {
		at = want
	}
	sweep.Reserve(d, at, dur)
	ref.reserveRef(d, at, dur)
	if !slices.Equal(sweep.times, ref.times) || !slices.Equal(sweep.avail, ref.avail) {
		t.Fatalf("Reserve(%+v, %v, %v): profile %v %+v, reference %v %+v",
			d, at, dur, sweep.times, sweep.avail, ref.times, ref.avail)
	}
}

// TestEarliestFitDifferential holds the one-sweep EarliestFit and the
// windowed Reserve to the whole-profile scans over random release sets,
// each followed by a sequence of interleaved queries and reservations.
// Starts fall before, on, just past and between breakpoints and past the
// last; durations are zero, short, on the release grid and +Inf; about
// one demand in eight can never fit.
func TestEarliestFitDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sweep, ref := &Profile{}, &Profile{}
	for iter := 0; iter < 2000; iter++ {
		now := float64(rng.Intn(4)) * 100
		cur := Resources{NormalNodes: rng.Intn(6), LargeNodes: rng.Intn(3), FreeMB: rng.Int63n(8000)}
		rel := ordered(randomReleases(rng, now))
		sweep.Reset(now, cur, rel)
		ref.Reset(now, cur, rel)
		for step := 0; step < 16; step++ {
			d := randomDemand(rng)
			d.Nodes %= 8 // most demands fit somewhere, and some only late
			if rng.Intn(8) == 0 {
				d.Nodes += 1000
			}
			after := probeStart(rng.Intn(1000), ref)
			dur := probeDurations[rng.Intn(len(probeDurations))]
			checkSweepStep(t, sweep, ref, d, after, dur, rng.Intn(4) != 0)
		}
	}
}

// TestProfileSweepAllocationFree asserts that on a warm profile neither
// EarliestFit nor Reserve allocates.
func TestProfileSweepAllocationFree(t *testing.T) {
	var rel Releases = ordered(randomReleases(rand.New(rand.NewSource(5)), 0))
	p := &Profile{}
	d := Demand{Nodes: 2, UsePool: true, PooledMB: 500}
	run := func() {
		p.Reset(0, Resources{NormalNodes: 3, FreeMB: 2000}, rel)
		for k := 0; k < 8; k++ {
			at := p.EarliestFit(d, float64(k)*35, 90)
			if !math.IsInf(at, 1) {
				p.Reserve(d, at, 90)
			}
		}
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Fatalf("warm EarliestFit and Reserve allocate %.1f per run, want 0", got)
	}
}

// FuzzEarliestFit holds the one-sweep EarliestFit and the windowed Reserve
// to the whole-profile scans. The first byte counts the releases, each
// four bytes (At offset, normal nodes, large nodes, pool MB); every later
// byte quadruple is one query and reservation (demand nodes and flags,
// start, duration, pool MB).
func FuzzEarliestFit(f *testing.F) {
	f.Add([]byte{2, 10, 1, 0, 4, 20, 2, 1, 8, 3, 7, 1, 9, 2, 12, 0, 3})
	f.Add([]byte{0, 1, 0, 8, 0, 129, 1, 0, 200})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		byteAt := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		const now = 100.0
		n := byteAt(0) % 16
		var rel []Release
		for i := 0; i < n; i++ {
			b := 1 + 4*i
			rel = append(rel, Release{
				At:  now + float64(byteAt(b)%32-4)*25, // some overdue, many tied
				Res: Resources{NormalNodes: byteAt(b+1) % 4, LargeNodes: byteAt(b+2) % 3, FreeMB: int64(byteAt(b+3)) * 16},
			})
		}
		cur := Resources{NormalNodes: 2, LargeNodes: 1, FreeMB: 1024}
		sweep, ref := NewProfile(now, cur, ordered(rel)), NewProfile(now, cur, ordered(rel))
		for b := 1 + 4*n; b+3 < len(data); b += 4 {
			d := Demand{Nodes: int(data[b] % 16), LargeOnly: data[b]&16 != 0}
			if data[b]&32 != 0 {
				d.UsePool, d.PooledMB = true, int64(data[b+3])*16
			}
			after := probeStart(int(data[b+1]), ref)
			dur := probeDurations[int(data[b+2])%len(probeDurations)]
			checkSweepStep(t, sweep, ref, d, after, dur, data[b]&64 == 0)
		}
	})
}
