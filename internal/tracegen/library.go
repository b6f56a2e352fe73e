package tracegen

import (
	"math"
	"math/rand"
	"sync"

	"dismem/internal/traces/google"
)

// The Borg cell is a dataset, not a per-trace draw. The paper mined every
// workload's job-memory shapes from one Borg trace (the 2019 trace's cell
// b), so every trace a process generates shares one shape library per
// (GoogleCollections, RDPEpsilonFrac): the cell is drawn from borgSeed,
// never from a trace's seed, mined on the first request for its key, and
// dropped. Only the read-only library is kept, for the life of the process;
// each preset uses one cell size, so a daemon holds one.

// borgSeed seeds the synthetic Borg cell, which stands for the one trace
// the paper mined.
const borgSeed = 2019

// libKey names one shape library. The RDP tolerance is keyed by its bits,
// as Canon folds floats, so every value (NaN included) finds its entry.
type libKey struct {
	collections int
	rdpBits     uint64
}

// libEntry is one library, mined once by whichever request comes first;
// later and concurrent requests wait on once and share it.
type libEntry struct {
	once sync.Once
	lib  *google.ShapeLibrary
	err  error
}

var libs = struct {
	mu sync.Mutex
	m  map[libKey]*libEntry //dmp:guardedby(mu) mined or being mined; never evicted
}{m: map[libKey]*libEntry{}}

// drawBorgCell draws the synthetic Borg cell of n collections from
// borgSeed. It is a variable so tests can count the draws and watch the
// cell's lifetime.
var drawBorgCell = func(n int) *google.Dataset {
	return google.Generate(rand.New(rand.NewSource(borgSeed)), n)
}

// shapeLibrary returns the shape library of the Borg cell p names, mining
// it on the first request for its key. Mining is deterministic, so an
// error is kept with its key like a library. p must be normalized.
func shapeLibrary(p Params) (*google.ShapeLibrary, error) {
	k := libKey{p.GoogleCollections, math.Float64bits(p.RDPEpsilonFrac)}
	libs.mu.Lock()
	e := libs.m[k]
	if e == nil {
		e = &libEntry{}
		libs.m[k] = e
	}
	libs.mu.Unlock()
	e.once.Do(func() {
		e.lib, e.err = google.NewShapeLibrary(drawBorgCell(p.GoogleCollections), p.RDPEpsilonFrac)
	})
	return e.lib, e.err
}

// ShapeLibraries reports how many shape libraries the process holds, mined
// or being mined: one per distinct (GoogleCollections, RDPEpsilonFrac)
// requested. ResetCache does not drop them.
func ShapeLibraries() int {
	libs.mu.Lock()
	defer libs.mu.Unlock()
	return len(libs.m)
}
