package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/sched"
	"dismem/internal/telemetry"
	"dismem/internal/topology"
)

// differentialScenario builds one randomized configuration and a job
// generator that produces identical traces on every call, so the same
// scenario can be run through both refresh implementations.
func differentialScenario(seed int64) (Config, func() []*job.Job) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	nodes := 4 + rng.Intn(9)
	capMB := int64(800 + rng.Intn(5)*400)
	pols := []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}

	cfg := baseConfig(nodes, capMB, pols[int(seed)%len(pols)])
	cfg.Cluster.LargeFrac = []float64{0, 0.25, 0.5}[rng.Intn(3)]
	cfg.Backfill = []BackfillMode{EASYBackfill, ConservativeBackfill, NoBackfill}[rng.Intn(3)]
	cfg.EnforceTimeLimit = rng.Intn(2) == 0
	cfg.OOM = OOMMode(rng.Intn(2))
	cfg.MaxRestarts = 1 + rng.Intn(3)
	cfg.UpdateInterval = 40 + float64(rng.Intn(100))
	cfg.UpdateJitter = 0.2
	cfg.Seed = seed
	if rng.Intn(3) == 0 {
		// Exercise the hop-weighted remote fractions: with a topology and a
		// hop penalty, the cached max fraction path sees values above 1.
		topo := topology.Design(nodes)
		cfg.Topology = &topo
		cfg.HopPenalty = 0.5
	}

	jobSeed := seed*104729 + 5
	mkJobs := func() []*job.Job {
		jr := rand.New(rand.NewSource(jobSeed))
		n := 6 + jr.Intn(10)
		jobs := make([]*job.Job, 0, n)
		for i := 1; i <= n; i++ {
			req := int64(150 + jr.Intn(int(capMB)))
			runtime := 100 + float64(jr.Intn(900))
			var usage *memtrace.Trace
			switch jr.Intn(4) {
			case 0:
				usage = memtrace.Constant(req)
			case 1: // shrinks: the dynamic policy returns memory mid-run
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req}, {T: runtime / 2, MB: req/2 + 1},
				})
			case 2: // grows past the request: borrows remotely
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req / 2}, {T: runtime, MB: req + capMB/2},
				})
			default: // grows past the whole pool: OOM kills and restarts
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req / 2}, {T: runtime, MB: 4 * capMB * int64(nodes)},
				})
			}
			j := mkJob(i, float64(jr.Intn(600)), 1+jr.Intn(3), req, runtime, usage)
			if jr.Intn(2) == 0 {
				j.Profile = streamProfile()
			}
			if jr.Intn(3) == 0 {
				j.LimitSec = runtime * 1.2 // tight limit: time-outs under slowdown
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	return cfg, mkJobs
}

// runVariant executes one differential scenario on a ledger of the given
// shard count, through the incremental refresh or (ref) the retained
// full-rescan reference, and returns its Result plus the telemetry byte
// stream.
func runVariant(t *testing.T, cfg Config, jobs []*job.Job, shards int, ref bool) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	c := cfg
	c.Cluster.Shards = shards
	c.Telemetry = telemetry.New(telemetry.Options{
		Sink:           telemetry.NewJSONL(&buf),
		SampleInterval: 90,
	})
	s, err := New(c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s.refRescan = ref
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestDifferentialRefreshIncrementalVsRescan runs randomized scenarios —
// all three policies, all backfill modes, OOM restart/abandon paths, with
// and without topology weighting — through the incremental refresh and the
// retained full-rescan reference, asserting the Results are deeply equal and
// the telemetry JSONL logs are byte-identical. This is the end-to-end proof
// that the cached contention state, the O(1) resource summary and the reused
// scratch cannot change a single emitted byte.
func TestDifferentialRefreshIncrementalVsRescan(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			incRes, incLog := runVariant(t, cfg, mkJobs(), 0, false)
			refRes, refLog := runVariant(t, cfg, mkJobs(), 0, true)
			if !reflect.DeepEqual(incRes, refRes) {
				t.Fatalf("results diverged\nincremental: %+v\nrescan:      %+v", incRes, refRes)
			}
			if !bytes.Equal(incLog, refLog) {
				t.Fatalf("telemetry logs diverged (%d vs %d bytes)", len(incLog), len(refLog))
			}
			if incRes.Completed+incRes.TimedOut+incRes.Abandoned == 0 && !incRes.Infeasible {
				t.Fatal("scenario exercised nothing")
			}
		})
	}
}

// TestDifferentialWindowedParallelVsSerial runs the same 30 randomized
// scenarios as the incremental-vs-rescan suite on partitioned ledgers —
// three shards, and one node per shard — against the single-shard run,
// demanding deeply-equal Results and byte-identical telemetry. Sharding is
// the only executor layout left besides the plain serial loop; the suite
// keeps the name it had when it also covered the windowed executor.
func TestDifferentialWindowedParallelVsSerial(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			wantRes, wantLog := runVariant(t, cfg, mkJobs(), 0, false)
			for _, v := range []struct {
				name   string
				shards int
			}{
				{"sharded", 3},
				{"sharded-max", 1 << 20}, // clamps to one node per shard
			} {
				res, log := runVariant(t, cfg, mkJobs(), v.shards, false)
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("%s: results diverged\nserial: %+v\n%s: %+v", v.name, wantRes, v.name, res)
				}
				if !bytes.Equal(log, wantLog) {
					t.Fatalf("%s: telemetry logs diverged (%d vs %d bytes)", v.name, len(log), len(wantLog))
				}
			}
		})
	}
}

// midRunSimulator builds a simulator and stops its clock mid-run with many
// jobs still running, for white-box refresh and backfill measurements.
func midRunSimulator(tb testing.TB, nJobs, nodes int, bf BackfillMode) *Simulator {
	tb.Helper()
	cfg := baseConfig(nodes, 4096, policy.Dynamic)
	cfg.CheckInvariants = false
	cfg.Backfill = bf
	cfg.UpdateInterval = 100
	cfg.Horizon = 1000 // freeze mid-flight: jobs below run for 20000 s
	jobs := make([]*job.Job, 0, nJobs)
	for i := 1; i <= nJobs; i++ {
		req := int64(1024 + (i%7)*256)
		usage := memtrace.MustNew([]memtrace.Point{
			{T: 0, MB: req / 2}, {T: 10000, MB: req + 512},
		})
		j := mkJob(i, float64(i%40), 1+i%3, req, 20000, usage)
		if i%2 == 0 {
			j.Profile = streamProfile()
		}
		jobs = append(jobs, j)
	}
	s, err := New(cfg, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	if len(s.running) == 0 {
		tb.Fatal("no jobs running at the horizon")
	}
	return s
}

// TestRefreshAndBackfillPassAllocationFree asserts the per-event hot paths
// allocate nothing at steady state: the incremental refresh works entirely
// out of cached and scratch storage, and one conservative-backfill profile
// build reuses the pooled buffers.
func TestRefreshAndBackfillPassAllocationFree(t *testing.T) {
	s := midRunSimulator(t, 32, 48, ConservativeBackfill)
	s.refreshAll() // warm caches and scratch
	full := func() {
		s.trafficValid = false // defeat the elision: measure the full recompute
		s.refreshAll()
	}
	if got := testing.AllocsPerRun(50, full); got != 0 {
		t.Fatalf("refreshAll allocates %.1f per call at steady state, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { s.refreshAll() }); got != 0 {
		t.Fatalf("elided refreshAll allocates %.1f per call, want 0", got)
	}
	if s.prof == nil {
		s.prof = &sched.Profile{}
	}
	rebuild := func() {
		s.prof.Reset(s.eng.Now(), s.currentResources(), s.releases())
	}
	rebuild() // size the pooled buffers
	if got := testing.AllocsPerRun(50, rebuild); got != 0 {
		t.Fatalf("backfill profile rebuild allocates %.1f per pass, want 0", got)
	}
}

// BenchmarkRefresh isolates one contention refresh — the unit of work every
// start/finish/adjust/OOM event pays — at a high concurrent-running count,
// comparing the incremental path against the retained full rescan.
func BenchmarkRefresh(b *testing.B) {
	for _, mode := range []struct {
		name  string
		ref   bool
		elide bool
	}{{"incremental", false, false}, {"rescan", true, false}, {"elided", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := midRunSimulator(b, 96, 128, EASYBackfill)
			s.refRescan = mode.ref
			s.refreshAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !mode.elide {
					s.trafficValid = false
				}
				s.refreshAll()
			}
		})
	}
}

// TestShardSpanningJob covers the remaining shard-boundary case at the
// simulator level: a job whose allocation spans every shard (Nodes equal to
// the cluster size) with usage growth that borrows remote memory across
// shard boundaries, compared against the single-shard ledger.
func TestShardSpanningJob(t *testing.T) {
	cfg := baseConfig(6, 1024, policy.Dynamic)
	cfg.Seed = 11
	cfg.UpdateInterval = 50
	mk := func() []*job.Job {
		grow := memtrace.MustNew([]memtrace.Point{
			{T: 0, MB: 256}, {T: 2000, MB: 1500},
		})
		return []*job.Job{
			mkJob(1, 0, 6, 512, 2000, grow), // spans all 6 nodes → all shards
			mkJob(2, 100, 2, 700, 1200, memtrace.Constant(700)),
		}
	}
	wantRes, wantLog := runVariant(t, cfg, mk(), 1, false)
	for _, shards := range []int{2, 3, 6} {
		res, log := runVariant(t, cfg, mk(), shards, false)
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("shards=%d: results diverged", shards)
		}
		if !bytes.Equal(log, wantLog) {
			t.Fatalf("shards=%d: telemetry diverged", shards)
		}
	}
}
