// Command dmpbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock window, checks every output the program
// produces, and prints each metric by name with its unit.
//
//	dmpbench --workload grizzly-week --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json,
// measured by three child processes of itself in turn (see processes);
// with --trace 1 it alternates untraced and traced operations and reports
// the per-layer metrics (exact work counters, per-module CPU self time from
// a profile of the traced operations only, and the tracing overhead). The
// last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the line before it stamps the
// run with the machine it ran on. Human-readable progress goes to standard
// error. The exit code is 0 only when every check passed.
//
// The benchmark drives the program only through its public entry points at
// their defaults (experiments.Preset, core.New/Start/Finish,
// server.New(...).Handler()); it never sets Config.Parallel, Workers,
// Cluster.Shards or WindowStatsOut. See README.md in this directory for the
// workloads, the layer map and the measured spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp identifies the machine a result was measured on; compare.py
// refuses to compare results whose core counts differ.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// run carries one benchmark invocation's settings and its accounting: the
// operations attempted, the ones whose checks failed, and the metrics
// recorded so far.
type run struct {
	seed   int64
	window time.Duration
	trace  bool
	// child marks one of the processes an untraced run is split across:
	// it sets up once and reports raw samples for the parent to merge.
	child bool
	// digest identifies the first timed operation's output; the processes
	// of one run must agree on it.
	digest string

	e2e e2eSamples

	attempted, failed int
	failures          []string
	metrics           map[string]metric

	// tamper, when set (tests only), may corrupt the output of operation
	// i before it is checked, to prove that the checks catch it.
	tamper func(i int, out any)
}

func newRun(seed int64, window time.Duration, trace bool) *run {
	return &run{seed: seed, window: window, trace: trace, metrics: map[string]metric{}}
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op accounts one operation whose checks passed when ok is true.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// fail records why an operation's check failed and returns false, so a
// check reads `ok = ok && (cond || r.fail(...))`.
func (r *run) fail(format string, args ...any) bool {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// maybeTamper hands operation i's output to the test hook.
func (r *run) maybeTamper(i int, out any) {
	if r.tamper != nil {
		r.tamper(i, out)
	}
}

// setups runs one complete set-up k times (once in a child process) and
// returns the median seconds. Each repetition rebuilds every input from the
// seed, so the last one's state is what the timed window uses. A
// collection after the last one (untimed) sizes the next heap goal from
// the live inputs, not from the set-up's garbage, so how often the timed
// operations collect does not depend on how much the set-up allocated.
func (r *run) setups(k int, once func() error) (float64, error) {
	if r.child {
		k = 1
	}
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := once(); err != nil {
			return 0, err
		}
		r.e2e.SetupS = append(r.e2e.SetupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	return median(r.e2e.SetupS), nil
}

// loop calls op(i) for i = 0, 1, … until the window has elapsed (always at
// least twice, so a traced run times both an untraced and a traced
// operation). It returns the number of operations and the wall time up to
// the end of the last one.
func (r *run) loop(op func(i int) error) (int, time.Duration, error) {
	t0 := time.Now()
	n := 0
	for n < 2 || time.Since(t0) < r.window {
		if err := op(n); err != nil {
			return n, time.Since(t0), err
		}
		n++
	}
	return n, time.Since(t0), nil
}

// liveMB is the live heap after a full collection, in MiB. Callers keep
// their inputs and last result reachable across the call.
func liveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail reports the highest percentile of xs that has at least ten samples
// beyond it: the 11th-largest value and its percentile rank, or zeros when
// there are ten samples or fewer.
func tail(xs []float64) (pct, v float64) {
	n := len(xs)
	if n <= 10 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuModel reads the processor model name; "unknown" when unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// e2eSamples are the raw measurements behind the end-to-end metrics, in
// the form the processes of one run merge.
type e2eSamples struct {
	SetupS   []float64 `json:"setup_s"` // one per set-up
	RunMS    []float64 `json:"run_ms"`  // one per timed operation
	Ops      int       `json:"ops"`
	ElapsedS float64   `json:"elapsed_s"`
	LiveMB   []float64 `json:"live_mb"` // one per process
}

// addWindow records a timed window's operations and the timed scenarios.
func (e *e2eSamples) addWindow(runMS []float64, ops int, elapsed time.Duration) {
	e.RunMS = append(e.RunMS, runMS...)
	e.Ops += ops
	e.ElapsedS += elapsed.Seconds()
}

// report sets the end-to-end metrics from the samples.
func (e *e2eSamples) report(r *run) {
	r.set("setup_s", median(e.SetupS), "s")
	r.set("run_ms", median(e.RunMS), "ms")
	r.set("ops_per_s", float64(e.Ops)/e.ElapsedS, "1/s")
	r.set("live_mb", median(e.LiveMB), "MiB")
}

// processes is how many processes an untraced run is split across, each
// setting up once and measuring its share of the window. A process's
// memory layout biases every operation it times by several per cent;
// pooling the samples of three averages that bias out of the run's medians,
// and the three set-ups give setup_s its median.
const processes = 3

// childOut is what a child process prints as its last line.
type childOut struct {
	E2E       e2eSamples `json:"e2e"`
	Digest    string     `json:"digest"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Failures  []string   `json:"failures"`
}

// runProcesses runs an untraced workload as a sequence of child processes
// of this binary, each measuring window/processes, and merges their
// samples into r.
func runProcesses(r *run, workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	share := r.window / processes
	for i := 0; i < processes; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(r.seed, 10),
			"--trace", "0", "--child", share.String())
		cmd.Stderr = os.Stderr
		// A child must not outlive a parent that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var c childOut
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
		r.e2e.SetupS = append(r.e2e.SetupS, c.E2E.SetupS...)
		r.e2e.RunMS = append(r.e2e.RunMS, c.E2E.RunMS...)
		r.e2e.Ops += c.E2E.Ops
		r.e2e.ElapsedS += c.E2E.ElapsedS
		r.e2e.LiveMB = append(r.e2e.LiveMB, c.E2E.LiveMB...)
		r.attempted += c.Attempted
		r.failed += c.Failed
		r.failures = append(r.failures, c.Failures...)
		if i == 0 {
			r.digest = c.Digest
		} else {
			r.op(c.Digest == r.digest || r.fail("process %d: first output %.12s differs from process 0's %.12s", i, c.Digest, r.digest))
		}
	}
	return nil
}

var workloads = map[string]func(*run) error{
	"grizzly-week": func(r *run) error { return grizzlyWeek(r, grizzlyFull) },
	"fleet-100k":   func(r *run) error { return fleet(r, fleetFull) },
	"dmpd-study":   func(r *run) error { return dmpdStudy(r, dmpdFull) },
}

func main() {
	workload := flag.String("workload", "", "grizzly-week | fleet-100k | dmpd-study")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	child := flag.Duration("child", 0, "internal: measure this long as one process of an untraced run")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dmpbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	var err error
	switch {
	case *child > 0:
		r.child, r.window = true, *child
		if err = fn(r); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(childOut{E2E: r.e2e, Digest: r.digest,
				Attempted: r.attempted, Failed: r.failed, Failures: r.failures})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		return
	case r.trace:
		err = fn(r)
	default:
		if err = runProcesses(r, *workload); err == nil {
			r.e2e.report(r)
		}
	}
	if err == nil {
		err = r.complete()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	stamp := envStamp{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: r.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version()}
	if err := emit(os.Stdout, r, stamp); err != nil {
		fmt.Fprintf(os.Stderr, "dmpbench: %v\n", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// emit prints the human-readable table to standard error, then the machine
// stamp and the result object as the last two lines of out.
func emit(out io.Writer, r *run, stamp envStamp) error {
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	if r.attempted == 0 {
		return errors.New("no operation attempted")
	}
	env, err := json.Marshal(map[string]envStamp{"env": stamp})
	if err != nil {
		return err
	}
	res, err := json.Marshal(report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", env, res)
	return err
}
