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

// TestForkWideJobIDs forks runs whose job IDs do not fit 32 bits, or are
// negative: a branch must bind every pending event to the job it belongs
// to, so a no-op branch still reproduces a fresh run exactly. The event
// budget turns a misbound branch, which loops, into an error.
func TestForkWideJobIDs(t *testing.T) {
	for _, shift := range []int{-1000, 1 << 32} {
		t.Run(fmt.Sprintf("shift=%d", shift), func(t *testing.T) {
			cfg, mkJobs := forkScenario(4)
			cfg.MaxEvents = 1_000_000
			shifted := func() []*job.Job {
				jobs := mkJobs()
				for _, j := range jobs {
					j.ID += shift
					if j.DependsOn != 0 {
						j.DependsOn += shift
					}
				}
				return jobs
			}
			wantRes, _ := freshRun(t, cfg, shifted())
			_, branch := mustFork(t, cfg, shifted(), 0.5*wantRes.Makespan)
			res, err := branch.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("branch diverged from fresh run\nfresh:  %+v\nbranch: %+v", wantRes, res)
			}
		})
	}
}

// TestForkReleaseOrder checks the release order a fork inherits: at the fork
// point and at later pauses it must list the same jobs with the same
// releases as a fresh run paused at the same instants, and every entry must
// be the fork's own running job, never the base's.
func TestForkReleaseOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := forkScenario(seed)
			wantRes, _ := freshRun(t, cfg, mkJobs())
			at := 0.4 * wantRes.Makespan
			base, branch := mustFork(t, cfg, mkJobs(), at)
			fresh, err := New(cfg, mkJobs())
			if err != nil {
				t.Fatal(err)
			}
			fresh.Start()
			checked := 0
			for _, until := range []float64{at, 0.6 * wantRes.Makespan, 0.8 * wantRes.Makespan} {
				if err := fresh.StepUntil(until); err != nil {
					t.Fatal(err)
				}
				if err := branch.StepUntil(until); err != nil {
					t.Fatal(err)
				}
				checked += len(branch.ends)
				if len(branch.ends) != len(fresh.ends) {
					t.Fatalf("t=%v: fork lists %d releases, fresh run %d", until, len(branch.ends), len(fresh.ends))
				}
				for i, rj := range branch.ends {
					if rj != branch.table[rj.idx].run || rj == base.table[rj.idx].run {
						t.Fatalf("t=%v: fork release %d (job %d) is not the fork's running job", until, i, rj.j.ID)
					}
					if rj.j.ID != fresh.ends[i].j.ID {
						t.Fatalf("t=%v: fork release %d is job %d, fresh run job %d", until, i, rj.j.ID, fresh.ends[i].j.ID)
					}
					if got, want := branch.ends.Release(i), fresh.ends.Release(i); got != want {
						t.Fatalf("t=%v: fork release %d is %+v, fresh run %+v", until, i, got, want)
					}
				}
			}
			if checked == 0 {
				t.Fatalf("no job running at any pause (infeasible %v): the scenario checks nothing", wantRes.Infeasible)
			}
		})
	}
}
