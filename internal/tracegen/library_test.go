package tracegen

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dismem/internal/traces/google"
)

// cellDraws counts the Borg cells drawn, by collection count.
type cellDraws struct {
	mu sync.Mutex
	n  map[int]int
}

func (c *cellDraws) of(collections int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[collections]
}

// freshLibraries empties the process's shape libraries and counts the Borg
// cells drawn until the test ends; then the libraries held before return.
// onDraw, if non-nil, sees each cell drawn.
func freshLibraries(t *testing.T, onDraw func(*google.Dataset)) *cellDraws {
	c := &cellDraws{n: map[int]int{}}
	draw := drawBorgCell
	drawBorgCell = func(n int) *google.Dataset {
		d := draw(n)
		c.mu.Lock()
		c.n[n]++
		c.mu.Unlock()
		if onDraw != nil {
			onDraw(d)
		}
		return d
	}
	libs.mu.Lock()
	held := libs.m
	libs.m = map[libKey]*libEntry{}
	libs.mu.Unlock()
	t.Cleanup(func() {
		drawBorgCell = draw
		libs.mu.Lock()
		libs.m = held
		libs.mu.Unlock()
	})
	return c
}

// Every trace of a (GoogleCollections, RDPEpsilonFrac) key reads one shape
// library, mined from one Borg cell: the trace's seed does not pick the
// cell, and another key mines its own.
func TestShapeLibraryMinedOncePerKey(t *testing.T) {
	draws := freshLibraries(t, nil)
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := Run(benchParams(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := draws.of(100); n != 1 {
		t.Fatalf("four seeds drew %d Borg cells of 100 collections, want 1", n)
	}
	coarse := benchParams(1)
	coarse.RDPEpsilonFrac = 0.1
	bigger := benchParams(1)
	bigger.GoogleCollections = 120
	for _, p := range []Params{coarse, bigger, coarse, bigger} {
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := draws.of(100), draws.of(120); a != 2 || b != 1 {
		t.Fatalf("cells drawn: %d of 100 collections, %d of 120; want 2 (two RDP tolerances) and 1", a, b)
	}
	if n := ShapeLibraries(); n != 3 {
		t.Fatalf("ShapeLibraries() = %d after three keys, want 3", n)
	}
}

// Concurrent cold requests for distinct seeds (run under -race in CI) wait
// on one library build and share it.
func TestCachedDistinctSeedsShareOneLibrary(t *testing.T) {
	draws := freshLibraries(t, nil)
	ResetCache()
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-start
			if _, err := Cached(benchParams(seed)); err != nil {
				t.Error(err)
			}
		}(int64(100 + i))
	}
	close(start)
	wg.Wait()
	if _, _, misses := CacheStats(); misses != goroutines {
		t.Fatalf("%d distinct seeds missed the trace cache %d times", goroutines, misses)
	}
	if n := draws.of(100); n != 1 {
		t.Fatalf("%d concurrent cold traces drew %d Borg cells, want 1", goroutines, n)
	}
	if n := ShapeLibraries(); n != 1 {
		t.Fatalf("ShapeLibraries() = %d, want 1", n)
	}
}

// The library keeps only its mined shapes: once it is built, neither the
// Borg cell nor its collections are reachable.
func TestShapeLibraryKeepsNoDataset(t *testing.T) {
	var cellFreed, collectionsFreed atomic.Bool
	freshLibraries(t, func(d *google.Dataset) {
		runtime.SetFinalizer(d, func(*google.Dataset) { cellFreed.Store(true) })
		runtime.SetFinalizer(&d.Collections[0], func(*google.Collection) { collectionsFreed.Store(true) })
	})
	p := benchParams(1)
	p.normalize()
	lib, err := shapeLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !(cellFreed.Load() && collectionsFreed.Load()); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !cellFreed.Load() || !collectionsFreed.Load() {
		t.Fatalf("the library keeps its Borg cell reachable (cell freed %v, collections freed %v)",
			cellFreed.Load(), collectionsFreed.Load())
	}
	if again, _ := shapeLibrary(p); again != lib {
		t.Fatal("a second request mined another library")
	}
}
