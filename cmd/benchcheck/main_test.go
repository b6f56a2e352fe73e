package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchCollectsRepeatedRuns(t *testing.T) {
	in := `goos: linux
BenchmarkFig5-4            1    500000000 ns/op    1234 B/op   56 allocs/op
BenchmarkScenario/dynamic-4  100   2000000 ns/op
BenchmarkFig5-4            1    480000000 ns/op
BenchmarkScenario/dynamic-4  100   2100000 ns/op
BenchmarkFig5-4            1    900000000 ns/op
PASS
`
	samples, order, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BenchmarkFig5", "BenchmarkScenario/dynamic"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if got := samples["BenchmarkFig5"]; !reflect.DeepEqual(got, []float64{5e8, 4.8e8, 9e8}) {
		t.Fatalf("Fig5 samples = %v", got)
	}
	if got := samples["BenchmarkScenario/dynamic"]; len(got) != 2 {
		t.Fatalf("dynamic samples = %v", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		// One wild outlier in five runs — the phantom-regression shape —
		// must not move the median.
		{[]float64{100, 101, 99, 100, 1000}, 100},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	// The input slice is left unsorted.
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestLoadBaselineAndCompareSamples(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_X.json")
	data := `{
  "commit": "abc1234",
  "benchmarks": [
    {"name": "BenchmarkFig5", "iterations": 5, "ns_per_op": 500000000, "bytes_per_op": 10, "allocs_per_op": 2},
    {"name": "BenchmarkScenario/dynamic", "iterations": 100, "ns_per_op": 2000000, "bytes_per_op": null, "allocs_per_op": null},
    {"name": "BenchmarkNoTiming", "iterations": 1, "ns_per_op": null, "bytes_per_op": null, "allocs_per_op": null}
  ]
}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	base, want, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.Commit != "abc1234" {
		t.Fatalf("commit = %q", base.Commit)
	}
	if want["BenchmarkFig5"] != 5e8 || want["BenchmarkScenario/dynamic"] != 2e6 {
		t.Fatalf("want map = %v", want)
	}
	if _, ok := want["BenchmarkNoTiming"]; ok {
		t.Fatal("null ns_per_op entry leaked into the comparison map")
	}

	samples, order := baselineSamples(base)
	if wantOrder := []string{"BenchmarkFig5", "BenchmarkScenario/dynamic"}; !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("order = %v, want %v", order, wantOrder)
	}
	// Each recorded timing is a one-sample series: its median is itself, so
	// the -compare path reports exactly the recorded number.
	if got := median(samples["BenchmarkFig5"]); got != 5e8 {
		t.Fatalf("median of recorded sample = %g", got)
	}

	if _, _, err := loadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loadBaseline on a missing file did not error")
	}
}

func TestBenchLineRegexp(t *testing.T) {
	m := benchLine.FindStringSubmatch("BenchmarkScenario/dynamic-8   	     100	   2110313 ns/op	  233236 B/op")
	if m == nil || m[1] != "BenchmarkScenario/dynamic" || m[2] != "2110313" {
		t.Fatalf("submatch = %v", m)
	}
	if benchLine.MatchString("ok  	dismem	1.2s") {
		t.Fatal("matched a non-benchmark line")
	}
}

func TestCheckSpeedup(t *testing.T) {
	samples := map[string][]float64{
		"BenchmarkScenario/100k":         {3.0e9, 3.1e9, 2.9e9},
		"BenchmarkScenario/100k-domains": {1.0e9, 0.9e9, 1.1e9},
	}
	pair := "BenchmarkScenario/100k,BenchmarkScenario/100k-domains"
	if code := checkSpeedup(samples, pair, 3.0); code != 0 {
		t.Fatalf("3.0x achieved speedup failed the 3.0x gate: code %d", code)
	}
	if code := checkSpeedup(samples, pair, 3.5); code != 1 {
		t.Fatalf("3.0x achieved speedup passed a 3.5x gate: code %d", code)
	}
	if code := checkSpeedup(samples, "only-one-name", 1.0); code != 2 {
		t.Fatalf("malformed pair: code %d, want 2", code)
	}
	if code := checkSpeedup(samples, "BenchmarkScenario/100k,BenchmarkMissing", 1.0); code != 1 {
		t.Fatalf("missing benchmark: code %d, want 1", code)
	}
}
