package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dismem/internal/job"
	"dismem/internal/telemetry"
)

// forkScenario overlays the shared differential scenario with the fork
// suite's extra axes: ledger shard count and pressure mode both cycle with
// the seed, so 30 seeds cover every policy × pressure × sharding cell.
func forkScenario(seed int64) (Config, func() []*job.Job) {
	cfg, mkJobs := differentialScenario(seed)
	if seed%2 == 1 {
		// Domains mode has one ledger shard per domain, so it sweeps the
		// domain count instead.
		cfg.Pressure = PressureDomains
		cfg.Domains = []int{2, 3, 4, 8}[int(seed/2)%4]
	} else {
		cfg.Cluster.Shards = []int{0, 3, 8}[int(seed/2)%3]
	}
	return cfg, mkJobs
}

// freshRun executes the scenario start-to-finish on a new simulator and
// returns its Result and full telemetry byte stream — the oracle every
// forked branch is compared against.
func freshRun(t *testing.T, cfg Config, jobs []*job.Job) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	c := cfg
	c.Telemetry = telemetry.New(telemetry.Options{
		Sink:           telemetry.NewJSONL(&buf),
		SampleInterval: 90,
	})
	s, err := New(c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestDifferentialForkNoop is the tentpole's end-to-end oracle: pause a run
// mid-flight, Fork it with no configuration change, finish only the branch,
// and require the branch's Result deeply equal to a fresh start-to-finish
// run and the telemetry byte stream — the base's prefix up to the fork point
// concatenated with the branch's suffix — byte-identical to the fresh run's.
// The 30 seeds sweep all three policies, both pressure modes, and unsharded/
// sharded ledgers; three fork fractions probe early, mid, and late forks.
func TestDifferentialForkNoop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := forkScenario(seed)
			wantRes, wantLog := freshRun(t, cfg, mkJobs())
			frac := []float64{0.25, 0.5, 0.9}[int(seed)%3]

			var prefix bytes.Buffer
			c := cfg
			c.Telemetry = telemetry.New(telemetry.Options{
				Sink:           telemetry.NewJSONL(&prefix),
				SampleInterval: 90,
			})
			base, err := New(c, mkJobs())
			if err != nil {
				t.Fatal(err)
			}
			base.Start()
			if err := base.StepUntil(frac * wantRes.Makespan); err != nil {
				t.Fatal(err)
			}

			var suffix bytes.Buffer
			branch, err := base.Fork(c.Telemetry.Fork(telemetry.NewJSONL(&suffix)))
			if err != nil {
				t.Fatal(err)
			}
			// The base is abandoned; closing its recorder flushes the prefix.
			if err := c.Telemetry.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := branch.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := branch.tel.Close(); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("branch result diverged from fresh run\nfresh:  %+v\nbranch: %+v", wantRes, res)
			}
			got := append(append([]byte(nil), prefix.Bytes()...), suffix.Bytes()...)
			if !bytes.Equal(got, wantLog) {
				t.Fatalf("telemetry diverged (%d vs %d bytes)", len(got), len(wantLog))
			}
			if st := branch.BranchStats(); st.SharedEvents == 0 && wantRes.Makespan > 0 && frac > 0 {
				t.Fatalf("branch claims no shared prefix: %+v", st)
			}
		})
	}
}

// TestForkConcurrentBranchesIdentical forks one paused base several times
// and finishes the base and every branch concurrently. Under -race this is
// the aliasing proof for the whole simulator (ledger CoW, cloned engine,
// cloned running set); determinism-wise every no-op branch must produce the
// fresh run's Result and all branch telemetry suffixes must be identical.
func TestForkConcurrentBranchesIdentical(t *testing.T) {
	for _, seed := range []int64{2, 7, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := forkScenario(seed)
			wantRes, _ := freshRun(t, cfg, mkJobs())

			c := cfg
			base, err := New(c, mkJobs())
			if err != nil {
				t.Fatal(err)
			}
			base.Start()
			if err := base.StepUntil(0.5 * wantRes.Makespan); err != nil {
				t.Fatal(err)
			}

			const nBranches = 4
			branches := make([]*Simulator, nBranches)
			sinks := make([]*bytes.Buffer, nBranches)
			tels := make([]*telemetry.Recorder, nBranches)
			for i := range branches {
				sinks[i] = &bytes.Buffer{}
				tels[i] = telemetry.New(telemetry.Options{
					Sink:           telemetry.NewJSONL(sinks[i]),
					SampleInterval: 90,
				})
				branches[i], err = base.Fork(tels[i])
				if err != nil {
					t.Fatal(err)
				}
			}

			results := make([]*Result, nBranches+1)
			errs := make([]error, nBranches+1)
			var wg sync.WaitGroup
			wg.Add(nBranches + 1)
			go func() {
				defer wg.Done()
				results[nBranches], errs[nBranches] = base.Finish()
			}()
			for i := range branches {
				i := i
				go func() {
					defer wg.Done()
					results[i], errs[i] = branches[i].Finish()
				}()
			}
			wg.Wait()

			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			for i, res := range results {
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("run %d diverged from fresh run\nfresh: %+v\n  got: %+v", i, wantRes, res)
				}
			}
			for i := range tels {
				if err := tels[i].Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < nBranches; i++ {
				if !bytes.Equal(sinks[i].Bytes(), sinks[0].Bytes()) {
					t.Fatalf("branch %d telemetry suffix differs from branch 0 (%d vs %d bytes)",
						i, sinks[i].Len(), sinks[0].Len())
				}
			}
		})
	}
}

// TestForkLifecycleErrors pins the contract: forking is legal only between
// Start and Finish.
func TestForkLifecycleErrors(t *testing.T) {
	cfg, mkJobs := differentialScenario(1)
	s, err := New(cfg, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fork(nil); err == nil {
		t.Fatal("Fork before Start succeeded")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fork(nil); err == nil {
		t.Fatal("Fork after Finish succeeded")
	}
}

// mustFork is the test shorthand: Start+StepUntil+Fork with telemetry off.
func mustFork(t testing.TB, cfg Config, jobs []*job.Job, until float64) (*Simulator, *Simulator) {
	t.Helper()
	s, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := s.StepUntil(until); err != nil {
		t.Fatal(err)
	}
	f, err := s.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

// TestForkBranchDivergence checks the point of the whole exercise: a branch
// that actually diverges (here: the base keeps running while the branch is
// re-ranked by a different seed path — we mutate nothing shared) leaves the
// base's outcome untouched.
func TestForkBranchDivergence(t *testing.T) {
	cfg, mkJobs := differentialScenario(4)
	wantRes, _ := freshRun(t, cfg, mkJobs())
	base, branch := mustFork(t, cfg, mkJobs(), 0.5*wantRes.Makespan)

	// Branch runs first and to completion; then the base. If the branch
	// leaked writes into the base, the base's result would diverge.
	bres, err := branch.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, err := base.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Fatalf("base perturbed by branch run\nfresh: %+v\n  got: %+v", wantRes, res)
	}
	if !reflect.DeepEqual(bres, wantRes) {
		t.Fatalf("no-op branch diverged\nfresh: %+v\n  got: %+v", wantRes, bres)
	}
}
