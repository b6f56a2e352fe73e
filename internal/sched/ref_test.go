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
// effect, as the oracles the ordered walks are held to.

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
			got, want := pooled.EarliestFit(d, after, dur), ref.EarliestFit(d, after, dur)
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
