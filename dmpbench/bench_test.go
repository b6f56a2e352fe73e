package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dismem/internal/core"
	"dismem/internal/experiments"
)

// Tiny scales: every code path of the full workloads in well under a
// second each.
var tiny = map[string]func(*run) error{
	"grizzly-week": func(r *run) error { return grizzlyWeek(r, grizzlyScale{nodes: 64, weeks: 1, setups: 2}) },
	"fleet-100k": func(r *run) error {
		return fleet(r, fleetScale{nodes: 2000, jobs: 40, jobNodes: 48, domains: 4, setups: 2})
	},
	"dmpd-study": func(r *run) error {
		return dmpdStudy(r, dmpdScale{preset: experiments.Bench, warm: 2, setups: 2, checkEvery: 1})
	},
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, name string, trace bool, tamper func(int, any)) (*run, report) {
	t.Helper()
	r := newRun(3, 50*time.Millisecond, trace)
	r.tamper = tamper
	if err := tiny[name](r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !trace {
		r.e2e.report(r)
	}
	if err := r.complete(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	if err := emit(&out, r, envStamp{Workload: name}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return r, rep
}

// Every workload emits exactly the metrics BENCHMARK.json names, each with
// its declared unit; end-to-end metrics are never 0.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || tiny[w.Name] == nil {
			t.Fatalf("workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			_, rep := tinyRun(t, w.Name, trace, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// A deliberately corrupted output is counted as a failed operation and the
// run reports itself incorrect.
func TestCorruptedOutputFails(t *testing.T) {
	corrupt := map[string]func(int, any){
		// The second repetition's result differs from the first.
		"grizzly-week": func(i int, out any) {
			if i == 1 {
				out.(*core.Result).Records[0].Finish++
			}
		},
		// A job loses its terminal outcome.
		"fleet-100k": func(i int, out any) {
			if i == 0 {
				out.(*core.Result).Records[0].Outcome = core.Pending
			}
		},
		// The daemon's body no longer matches the offline rendering or
		// the re-POSTs.
		"dmpd-study": func(i int, out any) {
			if i == 0 {
				b := out.(*[]byte)
				*b = append([]byte(nil), *b...)
				(*b)[len(*b)-3] ^= 1
			}
		},
	}
	for name, tamper := range corrupt {
		r, rep := tinyRun(t, name, false, tamper)
		if rep.Correct || rep.Failed == 0 || len(r.failures) == 0 {
			t.Errorf("%s: corrupted output not caught: correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}

// The profile decoder reads the runtime's own CPU profiles and charges the
// benchmark's code to "other".
func TestProfileAttribution(t *testing.T) {
	p := newProfiler()
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i % 7
		}
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.samples == 0 || p.ns[""] == 0 {
		t.Fatalf("busy loop not attributed to other: samples=%d by module=%v (x=%d)", p.samples, p.ns, x)
	}
	frames := map[uint64][]string{
		1: {"runtime.memmove"}, 2: {"io.ReadAll"}, 3: {"main.(*dmpdClient).do"},
		4: {"dismem/internal/server.(*Server).execute"}, 5: {"runtime.goexit"},
	}
	listed := map[string]bool{"runtime": true, "server": true}
	for locs, want := range map[[3]uint64]string{
		{1, 2, 3}: "",        // runtime work the benchmark asked for
		{1, 4, 5}: "runtime", // runtime work the program asked for
		{2, 4, 5}: "server",  // a standard-library frame is charged to its caller
		{1, 5, 5}: "runtime", // background runtime work
	} {
		if got := chargeTo(frames, locs[:], listed); got != want {
			t.Errorf("chargeTo(%v) = %q, want %q", locs, got, want)
		}
	}
	for fn, want := range map[string]string{
		"dismem/internal/traces/grizzly.ldmsTrace":     "grizzly",
		"dismem/internal/traces/google.Generate":       "google",
		"dismem/internal/core.(*Simulator).refreshAll": "core",
		"runtime.mallocgc":                             "runtime",
		"net/http.(*conn).serve":                       "net",
		"main.main":                                    "",
	} {
		if got, _ := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if m, terminal := moduleOf("sort.insertionSort"); terminal || m == "runtime" {
		t.Errorf("sort frames must be charged to their caller, got %q terminal=%v", m, terminal)
	}
}

// compare.py refuses results measured with different core counts.
func TestCompareRefusesDifferentCoreCounts(t *testing.T) {
	py, err := exec.LookPath("python3")
	if err != nil {
		t.Skip("python3 not installed")
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, d := range dirs {
		r := newRun(1, 0, false)
		r.op(true)
		for _, m := range endToEnd {
			r.set(m.name, 1, m.unit)
		}
		var out bytes.Buffer
		if err := emit(&out, r, envStamp{Workload: "fleet-100k", NProc: 2 + 2*i, GOMAXPROCS: 2 + 2*i}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "a.out"), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(py, "compare.py", dirs[0], dirs[1])
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !bytes.Contains(out, []byte("refusing")) {
		t.Fatalf("compare.py accepted mixed core counts: %v\n%s", err, out)
	}
}

// The built command follows the benchmark contract: an untraced run split
// across processes ends with the environment stamp and the result object,
// whose keys and metrics are exactly the contract's.
func TestCommandOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "dmpbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "--workload", "fleet-100k", "--seed", "2", "--seconds", "1", "--trace", "0")
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		t.Fatalf("want the stamp and the result, got %q", out)
	}
	var stamp map[string]envStamp
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &stamp); err != nil || stamp["env"].NProc == 0 {
		t.Fatalf("stamp line %q: %v", lines[len(lines)-2], err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted < processes*2 || len(rep.Metrics) != len(endToEnd) {
		t.Fatalf("result: %+v", rep)
	}
}
