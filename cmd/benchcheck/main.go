// Command benchcheck compares a `go test -bench` run against a recorded
// BENCH_<n>.json baseline and fails when any benchmark regressed beyond the
// tolerance. It is the CI bench-smoke gate: run the benchmarks and pipe the
// output through benchcheck.
//
// Run the benchmarks with -count=5 (or any N): benchcheck collects every
// sample per benchmark and compares the MEDIAN against the baseline, so one
// noisy scheduler hiccup on a shared runner cannot fake a regression — the
// failure mode that made BENCH_1→BENCH_2 report a phantom slowdown from
// single-shot timings.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkFig5$|BenchmarkHeadlines$' -benchtime 1x -count=5 . \
//	    | go run ./cmd/benchcheck -baseline BENCH_3.json
//
// With -compare, benchcheck diffs two recorded baselines instead of reading
// stdin — the cross-PR trajectory check (e.g. BENCH_3 vs BENCH_2):
//
//	go run ./cmd/benchcheck -baseline BENCH_2.json -compare BENCH_3.json
//
// Two baselines stamped with different core counts (nproc or GOMAXPROCS)
// are refused; when either file is unstamped, benchcheck prints a note and
// compares anyway.
//
// With -speedup/-min-speedup, benchcheck instead gates a ratio between two
// benchmarks of the SAME run — e.g. the CI gate that requires the
// pressure-domains model to beat the global one on the same 100k trace:
//
//	go test -run '^$' -bench 'BenchmarkScenario$/^(100k|100k-domains)$' -benchtime 1x -count=3 . \
//	    | go run ./cmd/benchcheck \
//	        -speedup 'BenchmarkScenario/100k,BenchmarkScenario/100k-domains' \
//	        -min-speedup 2.0
//
// Flags:
//
//	-baseline path   recorded JSON baseline (required unless -speedup is set)
//	-compare path    second baseline to diff against -baseline (skips stdin)
//	-tolerance f     allowed fractional slowdown before failing (default 0.20)
//	-speedup a,b     benchmark pair: require median(a)/median(b) ≥ -min-speedup
//	-min-speedup f   required speedup factor for the -speedup pair (default 1.0)
//
// Benchmarks present in the input but absent from the baseline (or vice
// versa) are reported and skipped; only the intersection is compared.
// Exit status 1 on regression, on a missed speedup, or if no benchmark
// could be compared; 2 on bad usage, an unreadable file, or baselines from
// different core counts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baselineFile struct {
	Commit string `json:"commit"`
	// NProc and GOMAXPROCS stamp the machine a baseline was recorded on
	// (scripts/bench.sh writes them; files before BENCH_7 have neither).
	NProc      *int `json:"nproc"`
	GOMAXPROCS *int `json:"gomaxprocs"`
	Benchmarks []struct {
		Name    string   `json:"name"`
		NsPerOp *float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches e.g. "BenchmarkFig5-4   5   493572471 ns/op   ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	baselinePath := flag.String("baseline", "", "recorded BENCH_<n>.json to compare against")
	comparePath := flag.String("compare", "", "second BENCH_<n>.json to diff against -baseline instead of stdin")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional slowdown before failing")
	speedupPair := flag.String("speedup", "", "comma-separated benchmark pair a,b: require median(a)/median(b) >= -min-speedup")
	minSpeedup := flag.Float64("min-speedup", 1.0, "required speedup factor for the -speedup pair")
	flag.Parse()
	if *baselinePath == "" && *speedupPair == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -baseline is required (or -speedup for a same-run ratio gate)")
		return 2
	}

	var base baselineFile
	want := map[string]float64{}
	if *baselinePath != "" {
		var err error
		base, want, err = loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			return 2
		}
	}

	var samples map[string][]float64
	var order []string
	var err error
	if *comparePath != "" {
		// Baseline-vs-baseline mode: the second file's recorded medians stand
		// in for the stdin samples, in the file's own benchmark order.
		cmp, _, err := loadBaseline(*comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			return 2
		}
		note, err := sameCores(base, *baselinePath, cmp, *comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			return 2
		}
		if note != "" {
			fmt.Println(note)
		}
		samples, order = baselineSamples(cmp)
	} else {
		samples, order, err = parseBench(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: reading stdin: %v\n", err)
			return 2
		}
	}

	if *speedupPair != "" {
		if code := checkSpeedup(samples, *speedupPair, *minSpeedup); code != 0 {
			return code
		}
		if *baselinePath == "" {
			return 0
		}
	}

	compared, regressed := 0, 0
	for _, name := range order {
		ref, ok := want[name]
		if !ok {
			fmt.Printf("skip  %-40s not in baseline %s\n", name, *baselinePath)
			continue
		}
		got := median(samples[name])
		compared++
		ratio := got / ref
		status := "ok   "
		if ratio > 1+*tolerance {
			status = "FAIL "
			regressed++
		}
		fmt.Printf("%s %-40s %14.0f ns/op (median of %d) vs %14.0f baseline (%+.1f%%)\n",
			status, name, got, len(samples[name]), ref, (ratio-1)*100)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark lines matched the baseline — nothing compared")
		return 1
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d of %d benchmarks regressed beyond %.0f%% vs %s (commit %s)\n",
			regressed, compared, *tolerance*100, *baselinePath, base.Commit)
		return 1
	}
	fmt.Printf("benchcheck: %d benchmarks within %.0f%% of %s (commit %s)\n",
		compared, *tolerance*100, *baselinePath, base.Commit)
	return 0
}

// checkSpeedup enforces the same-run ratio gate: pair is "slow,fast", and
// median(slow)/median(fast) must reach min. Returns the process exit code
// (0 on success) so realMain can pass it straight through.
func checkSpeedup(samples map[string][]float64, pair string, min float64) int {
	names := strings.Split(pair, ",")
	if len(names) != 2 || names[0] == "" || names[1] == "" {
		fmt.Fprintf(os.Stderr, "benchcheck: -speedup wants two comma-separated benchmark names, got %q\n", pair)
		return 2
	}
	slow, fast := names[0], names[1]
	for _, n := range names {
		if len(samples[n]) == 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: -speedup benchmark %q not found in input\n", n)
			return 1
		}
	}
	ratio := median(samples[slow]) / median(samples[fast])
	if ratio < min {
		fmt.Fprintf(os.Stderr, "benchcheck: speedup %s over %s is %.2fx, want >= %.2fx\n",
			fast, slow, ratio, min)
		return 1
	}
	fmt.Printf("speedup %-40s %.2fx over %s (>= %.2fx required)\n", fast, ratio, slow, min)
	return 0
}

// sameCores decides whether two recorded baselines may be compared: timings
// taken with different core counts (nproc or GOMAXPROCS) are not
// comparable, so two stamped files that differ are refused with an error.
// When either file is unstamped the comparison goes ahead with a note,
// since the core count cannot be checked.
func sameCores(a baselineFile, aPath string, b baselineFile, bPath string) (note string, err error) {
	for _, f := range []struct {
		base baselineFile
		path string
	}{{a, aPath}, {b, bPath}} {
		if f.base.NProc == nil || f.base.GOMAXPROCS == nil {
			return fmt.Sprintf("note: %s is not stamped with its core count; comparing without checking it", f.path), nil
		}
	}
	if *a.NProc != *b.NProc || *a.GOMAXPROCS != *b.GOMAXPROCS {
		return "", fmt.Errorf("refusing to compare baselines from different core counts (nproc, GOMAXPROCS): %s (%d, %d), %s (%d, %d)",
			aPath, *a.NProc, *a.GOMAXPROCS, bPath, *b.NProc, *b.GOMAXPROCS)
	}
	return "", nil
}

// loadBaseline reads a recorded BENCH_<n>.json and returns it plus a
// name → ns/op map of the benchmarks that carry a timing.
func loadBaseline(path string) (baselineFile, map[string]float64, error) {
	var base baselineFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, nil, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, nil, fmt.Errorf("%s: %w", path, err)
	}
	want := make(map[string]float64)
	for _, b := range base.Benchmarks {
		if b.NsPerOp != nil {
			want[b.Name] = *b.NsPerOp
		}
	}
	return base, want, nil
}

// baselineSamples converts a recorded baseline into the same (samples, order)
// shape parseBench yields, so -compare reuses the whole reporting path: each
// recorded ns/op becomes a single-sample series whose median is itself.
func baselineSamples(base baselineFile) (map[string][]float64, []string) {
	samples := make(map[string][]float64, len(base.Benchmarks))
	var order []string
	for _, b := range base.Benchmarks {
		if b.NsPerOp == nil {
			continue
		}
		if _, seen := samples[b.Name]; !seen {
			order = append(order, b.Name)
		}
		samples[b.Name] = append(samples[b.Name], *b.NsPerOp)
	}
	return samples, order
}

// parseBench collects every ns/op sample per benchmark name (repeated lines
// from -count=N accumulate) and the order names first appeared, so the
// report is stable.
func parseBench(r io.Reader) (map[string][]float64, []string, error) {
	samples := make(map[string][]float64)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if _, seen := samples[m[1]]; !seen {
			order = append(order, m[1])
		}
		samples[m[1]] = append(samples[m[1]], v)
	}
	return samples, order, sc.Err()
}

// median returns the middle sample (mean of the two middles for even n).
// The input is copied, not reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
