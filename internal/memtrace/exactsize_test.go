package memtrace_test

import (
	"math/rand"
	"testing"

	"dismem/internal/memtrace"
	"dismem/internal/traces/google"
	"dismem/internal/traces/grizzly"
)

// TestTraceProducersOwnExactStorage asserts that every producer of a trace
// returns points in storage of exactly their length. A reduced or
// deduplicated trace that kept the raw series' backing array would pin up to
// 20,000 samples per job for the life of a dataset.
func TestTraceProducersOwnExactStorage(t *testing.T) {
	check := func(t *testing.T, what string, tr *memtrace.Trace) {
		t.Helper()
		if pts := tr.Points(); len(pts) != cap(pts) {
			t.Fatalf("%s: %d points in storage of %d", what, len(pts), cap(pts))
		}
	}
	raw := make([]memtrace.Point, 1000)
	for i := range raw {
		raw[i] = memtrace.Point{T: float64(i), MB: int64(100 + (i*37)%250)}
	}
	long := memtrace.MustNew(raw)

	t.Run("RDP", func(t *testing.T) {
		red := long.RDP(50)
		if red.Len() >= long.Len() {
			t.Fatalf("RDP kept all %d points", red.Len())
		}
		check(t, "RDP", red)
	})
	t.Run("Scale", func(t *testing.T) {
		// Stretching 1e-300 by 1e-30 underflows to 0, so Scale drops it.
		tr := memtrace.MustNew([]memtrace.Point{{T: 0, MB: 1}, {T: 1e-300, MB: 2}, {T: 1, MB: 3}})
		scaled, err := tr.Scale(1e-30)
		if err != nil {
			t.Fatal(err)
		}
		if scaled.Len() != 2 {
			t.Fatalf("Scale kept %d points, want 2", scaled.Len())
		}
		check(t, "Scale", scaled)
		if scaled, err = long.Scale(5000); err != nil {
			t.Fatal(err)
		}
		check(t, "Scale", scaled)
	})
	t.Run("decoder", func(t *testing.T) {
		b, err := long.RDP(50).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var tr memtrace.Trace
		if err := tr.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		check(t, "UnmarshalBinary", &tr)
	})
	t.Run("grizzly", func(t *testing.T) {
		d := grizzly.Generate(grizzly.Params{Nodes: 48, WeekCount: 1}, rand.New(rand.NewSource(1)))
		w := &d.Weeks[0]
		w.Build()
		for i := range w.Jobs {
			check(t, "grizzly.Week.Build", w.Jobs[i].Usage)
		}
	})
	t.Run("google", func(t *testing.T) {
		lib, err := google.NewShapeLibrary(google.Generate(rand.New(rand.NewSource(3)), 500), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			check(t, "google.ShapeLibrary.TraceFor", lib.TraceFor(rng, int64(1000+rng.Intn(60000)), 600+rng.Float64()*80000))
		}
	})
}
