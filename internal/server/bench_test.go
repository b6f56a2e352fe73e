package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dismem/internal/experiments"
	"dismem/internal/tracegen"
)

// coldSeed numbers the trace seeds the benchmarks draw, from 1 (seed 0
// means the preset's default). The trace cache is process-wide, so a seed
// is never reused across -count runs or benchmarks.
var coldSeed atomic.Int64

// studyBranchDoc is the what-if branch of a dmpd study: three variants off
// the 62 % dynamic cell, twelve simulated hours in.
const studyBranchDoc = `{"mem_pct":62,"policy":"dynamic","at_time_s":43200,"variants":[` +
	`{"name":"static","policy":"static"},` +
	`{"name":"conservative","backfill":"conservative"},` +
	`{"name":"repack","repack":true}]}`

// postStudy cold-POSTs a Quick-preset study of the eight (memory, policy)
// cells on a trace seed no earlier study used, and returns its id.
func postStudy(b *testing.B, ts *httptest.Server) string {
	b.Helper()
	seed := coldSeed.Add(1)
	doc := fmt.Sprintf(`{"name":"cold-%d","trace":{"seed":%d},"mem_pcts":[50,62,75,100],"policies":["static","dynamic"]}`, seed, seed)
	code, body, _, err := doPost(ts.Client(), ts.URL, doc)
	if err != nil {
		b.Fatal(err)
	}
	if code != http.StatusOK {
		b.Fatalf("POST: %d %s", code, body)
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &r); err != nil || r.ID == "" {
		b.Fatalf("POST body has no id (%v): %s", err, body)
	}
	return r.ID
}

// newBenchServer starts a Quick-preset daemon behind a test server.
func newBenchServer(b *testing.B) *httptest.Server {
	s := New(Config{Preset: experiments.Quick()})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Abort()
	})
	return ts
}

// BenchmarkColdStudy is the cold path of a dmpd study: each iteration
// POSTs a Quick-preset spec with a trace seed no earlier iteration used,
// so the trace cache and the result cache both miss and the request pays
// for trace generation, the sweep and its telemetry capture. It draws no
// Borg cell: every seed reads the preset's one shape library, mined at most
// once in the process.
func BenchmarkColdStudy(b *testing.B) {
	ts := newBenchServer(b)
	_, _, misses0 := tracegen.CacheStats()
	libs0 := tracegen.ShapeLibraries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postStudy(b, ts)
	}
	b.StopTimer()
	if _, _, misses := tracegen.CacheStats(); misses-misses0 != int64(b.N) {
		b.Fatalf("%d POSTs missed the trace cache %d times", b.N, misses-misses0)
	}
	if libs := tracegen.ShapeLibraries(); libs > max(libs0, 1) {
		b.Fatalf("%d POSTs left %d shape libraries (%d before), want one for the preset", b.N, libs, libs0)
	}
}

// BenchmarkTelemetryGet is a dmpd study's telemetry GET: each iteration
// streams the cached study's eight cell logs, rendered from the captured
// records, and reads the whole body.
func BenchmarkTelemetryGet(b *testing.B) {
	ts := newBenchServer(b)
	url := ts.URL + "/v1/scenarios/" + postStudy(b, ts) + "/telemetry"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET: %d, %d bytes, %v", resp.StatusCode, n, err)
		}
		b.SetBytes(n)
	}
}

// BenchmarkBranchPost is a dmpd study's what-if branch POST: each
// iteration cold-POSTs a fresh study with the timer stopped, then times
// the branch POST, which re-simulates the 62 % dynamic cell's prefix and
// finishes a static, a conservative-backfill and a repack variant.
func BenchmarkBranchPost(b *testing.B) {
	ts := newBenchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := postStudy(b, ts)
		b.StartTimer()
		if resp, body := postBranch(b, ts.Client(), ts.URL, id, studyBranchDoc); resp.StatusCode != http.StatusOK {
			b.Fatalf("branch POST: %d %s", resp.StatusCode, body)
		}
	}
}
