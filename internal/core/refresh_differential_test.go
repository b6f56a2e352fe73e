package core

import (
	"bytes"
	"fmt"
	"math"
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

// usageKinds is the number of per-job usage shapes differentialScenario
// draws from.
const usageKinds = 5

// differentialScenario builds one randomized configuration and a job
// generator that produces identical traces on every call, so the same
// scenario can be run through both refresh implementations.
func differentialScenario(seed int64) (Config, func() []*job.Job) {
	return differentialScenarioKinds(seed, usageKinds)
}

// differentialScenarioKinds is differentialScenario with each job's usage
// drawn from the first kinds shapes only.
func differentialScenarioKinds(seed int64, kinds int) (Config, func() []*job.Job) {
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
			switch jr.Intn(kinds) {
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
			case 3: // grows past the whole pool: OOM kills and restarts
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req / 2}, {T: runtime, MB: 4 * capMB * int64(nodes)},
				})
			default: // borrows, then falls back below node capacity: the
				// leases are returned mid-run, and local-only resizes follow
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req / 2}, {T: runtime / 4, MB: capMB + capMB/2},
					{T: runtime / 2, MB: capMB / 2}, {T: 3 * runtime / 4, MB: capMB / 4},
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
// shard count and returns its Result plus the telemetry byte stream. It
// fires the events one at a time and, after each, checks the lazy-banking
// cost contract (checkBankingContract) and the incremental state against
// the rescan oracles (checkRescanOracles).
func runVariant(t *testing.T, cfg Config, jobs []*job.Job, shards int) (*Result, []byte) {
	t.Helper()
	res, log, _ := runChecked(t, cfg, jobs, shards)
	return res, log
}

// exercised counts what a checked run put the refresh through, so a suite
// can tell that its scenarios reached every path the oracles guard.
type exercised struct {
	contended int // events after which some running job was slowed by contention
	// Node resizes of a job that ran across the event, by remote memory
	// before → after: a local-only resize (0 → 0), a borrow (0 → >0) and a
	// return of the node's last lease (>0 → 0).
	local, borrow, giveBack int
}

// nodeMB is one compute node's allocation: total and remote MB.
type nodeMB struct{ total, remote int64 }

// snapshotNodes records every running job's per-node allocation.
func snapshotNodes(s *Simulator) map[*runningJob][]nodeMB {
	m := make(map[*runningJob][]nodeMB, len(s.runList))
	for _, rj := range s.runList {
		ns := make([]nodeMB, len(rj.alloc.PerNode))
		for i := range rj.alloc.PerNode {
			na := &rj.alloc.PerNode[i]
			ns[i] = nodeMB{na.TotalMB(), na.RemoteMB()}
		}
		m[rj] = ns
	}
	return m
}

// count adds the node resizes of every job running across one event.
func (x *exercised) count(s *Simulator, before map[*runningJob][]nodeMB) {
	for _, rj := range s.runList {
		ns, ok := before[rj]
		if !ok {
			continue
		}
		for i := range rj.alloc.PerNode {
			na, b := &rj.alloc.PerNode[i], ns[i]
			switch {
			case b.remote == 0 && na.RemoteMB() == 0 && na.TotalMB() != b.total:
				x.local++
			case b.remote == 0 && na.RemoteMB() > 0:
				x.borrow++
			case b.remote > 0 && na.RemoteMB() == 0:
				x.giveBack++
			}
		}
	}
}

// runChecked is runVariant that also reports what the run exercised.
func runChecked(t *testing.T, cfg Config, jobs []*job.Job, shards int) (*Result, []byte, exercised) {
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
	s.Start()
	var x exercised
	for {
		before, nodes := snapshotBanking(s), snapshotNodes(s)
		if !s.eng.Step(math.Inf(1)) {
			break
		}
		checkBankingContract(t, s, before)
		if checkRescanOracles(t, s) {
			x.contended++
		}
		x.count(s, nodes)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), x
}

// TestDifferentialRefreshIncrementalVsRescan runs randomized scenarios —
// all three policies, all backfill modes, OOM restart/abandon paths, with
// and without topology weighting — under the global model and three
// pressure domains, and after every event checks the incremental refresh,
// the O(1) resource summary and the reused release scratch against the
// full-rescan oracles (rescan_test.go): every domain's pressure and every
// running job's slowdown must match the rescan bit for bit, and every
// contention cache its allocation. Each scenario also runs twice and must
// reproduce its Result and telemetry exactly. Over the 30 seeds, each
// pressure model must see a contended job, a local-only node resize, a
// borrow and a return of a node's last lease: the resizes that do and do
// not refresh the contention model.
func TestDifferentialRefreshIncrementalVsRescan(t *testing.T) {
	seen := map[PressureMode]exercised{}
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			dc := cfg
			dc.Pressure = PressureDomains
			dc.Domains = 3
			for _, c := range []Config{cfg, dc} {
				res, log, x := runChecked(t, c, mkJobs(), 0)
				sum := seen[c.Pressure]
				sum.contended += x.contended
				sum.local += x.local
				sum.borrow += x.borrow
				sum.giveBack += x.giveBack
				seen[c.Pressure] = sum
				again, againLog := runVariant(t, c, mkJobs(), 0)
				if !reflect.DeepEqual(res, again) || !bytes.Equal(log, againLog) {
					t.Fatalf("%s: two identical runs diverged", c.Pressure)
				}
				if res.Completed+res.TimedOut+res.Abandoned == 0 && !res.Infeasible {
					t.Fatalf("%s: scenario exercised nothing", c.Pressure)
				}
			}
		})
	}
	for _, m := range []PressureMode{PressureGlobal, PressureDomains} {
		x := seen[m]
		if x.contended == 0 {
			t.Errorf("%s: no event left a job slowed by contention; the oracles compared nothing but slowdown 1", m)
		}
		if x.local == 0 || x.borrow == 0 || x.giveBack == 0 {
			t.Errorf("%s: node resizes local-only %d, borrowing %d, returning the last lease %d; want each at least once",
				m, x.local, x.borrow, x.giveBack)
		}
		t.Logf("%s: %d contended events; node resizes local-only %d, borrowing %d, returning the last lease %d",
			m, x.contended, x.local, x.borrow, x.giveBack)
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
			wantRes, wantLog := runVariant(t, cfg, mkJobs(), 0)
			for _, v := range []struct {
				name   string
				shards int
			}{
				{"sharded", 3},
				{"sharded-max", 1 << 20}, // clamps to one node per shard
			} {
				res, log := runVariant(t, cfg, mkJobs(), v.shards)
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
		if i%4 == 0 {
			// Outgrows its node from the start: holds remote memory, so
			// the global refresh has contended jobs to walk.
			req = 4096 + 1024
			usage = memtrace.Constant(req)
		}
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
	if len(s.runList) == 0 || len(s.domRemote[0]) == 0 {
		tb.Fatalf("%d jobs running at the horizon, %d holding remote memory; want both > 0", len(s.runList), len(s.domRemote[0]))
	}
	return s
}

// TestRefreshAndBackfillPassAllocationFree asserts the per-event hot paths
// allocate nothing at steady state: the incremental refresh works entirely
// out of cached and scratch storage, one conservative-backfill profile
// build reuses the pooled buffers, and the EASY shadow time walks the
// release order without building anything.
func TestRefreshAndBackfillPassAllocationFree(t *testing.T) {
	s := midRunSimulator(t, 32, 48, ConservativeBackfill)
	rj := s.runList[0]
	full := func() {
		s.stale = true // defeat the elision: measure the full recompute
		s.refreshAfter(rj)
	}
	full() // warm caches and scratch
	if got := testing.AllocsPerRun(50, full); got != 0 {
		t.Fatalf("refreshAfter allocates %.1f per call at steady state, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { s.refreshAfter(rj) }); got != 0 {
		t.Fatalf("elided refreshAfter allocates %.1f per call, want 0", got)
	}
	if s.prof == nil {
		s.prof = &sched.Profile{}
	}
	rebuild := func() {
		s.prof.Reset(s.eng.Now(), s.currentResources(), &s.ends)
	}
	rebuild() // size the pooled buffers
	if got := testing.AllocsPerRun(50, rebuild); got != 0 {
		t.Fatalf("backfill profile rebuild allocates %.1f per pass, want 0", got)
	}
	// The EASY reservation walks the release order in place.
	hj := s.runList[len(s.runList)-1].j
	if got := testing.AllocsPerRun(50, func() { s.shadowTimeFor(hj) }); got != 0 {
		t.Fatalf("EASY shadow time allocates %.1f per pass, want 0", got)
	}
}

// TestWarmSchedulingPassAllocationFree asserts a scheduling pass that
// cannot start its queued job allocates nothing, the rescheduled tick
// included: each simulator binds its tick action once, and a fork binds
// its own. A two-node job holds the cluster for a simulated week while a
// second one waits, so every event stepped below is one pass.
func TestWarmSchedulingPassAllocationFree(t *testing.T) {
	for _, bf := range []BackfillMode{EASYBackfill, ConservativeBackfill} {
		cfg := baseConfig(2, 4096, policy.Dynamic)
		cfg.CheckInvariants = false
		cfg.Backfill = bf
		cfg.UpdateInterval = 1e9
		jobs := []*job.Job{
			mkJob(1, 0, 2, 2048, 7*86400, memtrace.Constant(2048)),
			mkJob(2, 1, 2, 2048, 3600, memtrace.Constant(2048)),
		}
		s, err := New(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		if err := s.StepUntil(300); err != nil {
			t.Fatal(err)
		}
		f, err := s.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			sim  *Simulator
		}{{"base", s}, {"fork", f}} {
			name, sim := c.name, c.sim
			if sim.queue.Len() != 1 || len(sim.runList) != 1 {
				t.Fatalf("%v %s: %d queued, %d running; want 1 and 1", bf, name, sim.queue.Len(), len(sim.runList))
			}
			pass := func() {
				fired := sim.eng.Fired()
				if err := sim.StepUntil(sim.eng.Now() + sim.cfg.SchedInterval); err != nil {
					t.Fatal(err)
				}
				if sim.eng.Fired() != fired+1 || !sim.tickScheduled {
					t.Fatalf("%v %s: stepped %d events, want one pass that queues the next", bf, name, sim.eng.Fired()-fired)
				}
			}
			pass() // warm the pass's scratch
			if got := testing.AllocsPerRun(50, pass); got != 0 {
				t.Fatalf("%v %s: a warm scheduling pass allocates %.1f, want 0", bf, name, got)
			}
		}
	}
}

// BenchmarkRefresh isolates one global-model contention refresh — the unit
// of work every start/finish/adjust/OOM event pays — at a high
// concurrent-running count: the incremental path with the model marked
// stale (one event that moved the running set or an allocation), and the
// elided refresh of an event that moved nothing.
func BenchmarkRefresh(b *testing.B) {
	for _, mode := range []struct {
		name  string
		elide bool
	}{{"incremental", false}, {"elided", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := midRunSimulator(b, 96, 128, EASYBackfill)
			rj := s.runList[0]
			s.stale = true
			s.refreshAfter(rj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !mode.elide {
					s.stale = true
				}
				s.refreshAfter(rj)
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
	wantRes, wantLog := runVariant(t, cfg, mk(), 1)
	for _, shards := range []int{2, 3, 6} {
		res, log := runVariant(t, cfg, mk(), shards)
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("shards=%d: results diverged", shards)
		}
		if !bytes.Equal(log, wantLog) {
			t.Fatalf("shards=%d: telemetry diverged", shards)
		}
	}
}
