package server

import (
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dismem/internal/experiments"
	"dismem/internal/tracegen"
)

// coldSeed numbers the trace seeds BenchmarkColdStudy draws, from 1 (seed
// 0 means the preset's default). The trace cache is process-wide, so a
// seed is never reused across -count runs.
var coldSeed atomic.Int64

// BenchmarkColdStudy is the cold path of a dmpd study: each iteration
// POSTs a Quick-preset spec with a trace seed no earlier iteration used,
// so the trace cache and the result cache both miss and the request pays
// for trace generation, the sweep and its telemetry capture.
func BenchmarkColdStudy(b *testing.B) {
	s := New(Config{Preset: experiments.Quick()})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Abort()
	}()
	_, _, misses0 := tracegen.CacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := coldSeed.Add(1)
		doc := fmt.Sprintf(`{"name":"cold-%d","trace":{"seed":%d},"mem_pcts":[50,62,75,100],"policies":["static","dynamic"]}`, seed, seed)
		code, body, _, err := doPost(ts.Client(), ts.URL, doc)
		if err != nil {
			b.Fatal(err)
		}
		if code != 200 {
			b.Fatalf("POST %d: %d %s", i, code, body)
		}
	}
	b.StopTimer()
	if _, _, misses := tracegen.CacheStats(); misses-misses0 != int64(b.N) {
		b.Fatalf("%d POSTs missed the trace cache %d times", b.N, misses-misses0)
	}
}
