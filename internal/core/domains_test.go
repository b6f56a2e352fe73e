package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/slowdown"
)

// TestSingleDomainMatchesGlobal is the partition property test: one pressure
// domain covering the whole cluster IS the global model. The single flat
// traffic sum visits jobs and nodes in the same order, PressureBW over the
// whole fabric bandwidth is Model.Pressure, the per-domain max fraction
// degenerates to the global max, and the domain-first borrow walk is the
// global lender walk — so results and telemetry must be byte-identical, not
// merely statistically close, across the randomized differential scenarios.
func TestSingleDomainMatchesGlobal(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			gRes, gLog := runVariant(t, cfg, mkJobs(), 0)

			dc := cfg
			dc.Pressure = PressureDomains
			dc.Domains = 1
			dRes, dLog := runVariant(t, dc, mkJobs(), 0)

			if !reflect.DeepEqual(gRes, dRes) {
				t.Fatalf("results diverged\nglobal:        %+v\nsingle-domain: %+v", gRes, dRes)
			}
			if !bytes.Equal(gLog, dLog) {
				t.Fatalf("telemetry logs diverged (%d vs %d bytes)", len(gLog), len(dLog))
			}
			if gRes.Completed+gRes.TimedOut+gRes.Abandoned == 0 && !gRes.Infeasible {
				t.Fatal("scenario exercised nothing")
			}
		})
	}
}

// TestDomainsModeRelievesContention is the model-level sanity check the
// partition exists for: a bandwidth hog in one rack must not slow a job in
// another. Under uniform load per-domain rho equals global rho (traffic and
// bandwidth both scale with the node count), so the scenario is skewed: a
// hog with huge per-node bandwidth and a flat sensitivity curve (it emits
// traffic but feels no slowdown) fills one domain, and a
// contention-sensitive victim with modest remote traffic fills another. The
// global single rho charges the victim for the hog's traffic; the victim's
// domain rho sees only its own.
func TestDomainsModeRelievesContention(t *testing.T) {
	hogProf := &slowdown.Profile{
		Name: "hog", Nodes: 1, RuntimeSec: 100, BandwidthGBs: 50,
		Sens: slowdown.Curve{{Pressure: 0, Penalty: 0}},
	}
	mk := func() []*job.Job {
		hog := mkJob(1, 0, 3, 2048, 4000, memtrace.Constant(2048))
		hog.Profile = hogProf
		victim := mkJob(2, 0, 3, 1280, 4000, memtrace.Constant(1280))
		victim.Profile = streamProfile()
		return []*job.Job{hog, victim}
	}
	// 12 nodes, 4 domains of 3: the hog occupies one whole domain, the
	// victim the next, and the remaining idle nodes lend the remote halves.
	cfg := baseConfig(12, 1024, policy.Static)

	victimStretch := func(res *Result) float64 {
		for _, r := range res.Records {
			if r.Job.ID == 2 {
				return (r.Finish - r.LastStart) / r.Job.BaseRuntime
			}
		}
		t.Fatal("victim record missing")
		return 0
	}

	global := runSim(t, cfg, mk())

	dc := cfg
	dc.Pressure = PressureDomains
	dc.Domains = 4
	doms := runSim(t, dc, mk())

	gs, ds := victimStretch(global), victimStretch(doms)
	if gs <= 1 {
		t.Fatalf("global victim shows no contention (stretch %.3f): test exercises nothing", gs)
	}
	if ds >= gs {
		t.Fatalf("domain partition did not shield the victim: global stretch %.3f, domains stretch %.3f", gs, ds)
	}
}

// TestDomainsConfigValidation pins the Normalize contract for the new knobs.
func TestDomainsConfigValidation(t *testing.T) {
	cfg := baseConfig(8, 1024, policy.Dynamic)
	cfg.Domains = 4 // without Pressure: domains
	if err := cfg.Normalize(); err == nil {
		t.Fatal("Domains without Pressure: domains passed Normalize")
	}

	cfg = baseConfig(8, 1024, policy.Dynamic)
	cfg.Pressure = PressureDomains
	cfg.Domains = 64 // more domains than nodes: clamped
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Domains != 8 || cfg.Cluster.Shards != 8 {
		t.Fatalf("want Domains and Shards clamped to 8, got Domains=%d Shards=%d", cfg.Domains, cfg.Cluster.Shards)
	}

	cfg = baseConfig(8, 1024, policy.Dynamic)
	cfg.Pressure = PressureDomains
	cfg.Domains = 4
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Domains != 4 || cfg.Cluster.Shards != 4 {
		t.Fatalf("want 4 domains on 4 shards, got Domains=%d Shards=%d", cfg.Domains, cfg.Cluster.Shards)
	}

	// The default domain count ignores the ledger's shard count: 16,
	// clamped to the 8 nodes, and the shards follow the domains.
	cfg = baseConfig(8, 1024, policy.Dynamic)
	cfg.Pressure = PressureDomains
	cfg.Cluster.Shards = 4
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Domains != 8 || cfg.Cluster.Shards != 8 {
		t.Fatalf("want the default 16 domains clamped to 8, got Domains=%d Shards=%d", cfg.Domains, cfg.Cluster.Shards)
	}
}

// TestConfigRejectsUnindexableCapacity checks that Normalize turns a node
// capacity the ledger's packed lender key cannot hold into an error naming
// the field, rather than a panic in the cluster constructor.
func TestConfigRejectsUnindexableCapacity(t *testing.T) {
	cfg := baseConfig(8, 1<<61, policy.Dynamic)
	err := cfg.Normalize()
	if err == nil || !strings.Contains(err.Error(), "NormalMB") {
		t.Fatalf("Normalize() = %v, want an error naming NormalMB", err)
	}
	if _, err := New(baseConfig(8, 1<<61, policy.Dynamic), nil); err == nil {
		t.Fatal("New accepted the capacity")
	}
}

// midRunSimulatorDomains is midRunSimulator in pressure-domains mode.
func midRunSimulatorDomains(tb testing.TB, nJobs, nodes, doms int) *Simulator {
	tb.Helper()
	cfg := baseConfig(nodes, 4096, policy.Dynamic)
	cfg.CheckInvariants = false
	cfg.Backfill = EASYBackfill
	cfg.UpdateInterval = 100
	cfg.Pressure = PressureDomains
	cfg.Domains = doms
	cfg.Horizon = 1000
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
	if len(s.runList) == 0 {
		tb.Fatal("no jobs running at the horizon")
	}
	return s
}

// TestRefreshDomainsAllocationFree asserts the per-event domain refresh
// allocates nothing at steady state, like the global incremental path.
func TestRefreshDomainsAllocationFree(t *testing.T) {
	s := midRunSimulatorDomains(t, 32, 48, 8)
	rj := s.runList[0]
	s.refreshAfter(rj) // warm scratch
	full := func() {
		s.stale = true // defeat the elision: rebuild the touched domains
		s.refreshAfter(rj)
	}
	if got := testing.AllocsPerRun(50, full); got != 0 {
		t.Fatalf("refreshAfter allocates %.1f per call at steady state, want 0", got)
	}
}

// BenchmarkRefreshDomains is BenchmarkRefresh's domains-mode counterpart:
// one event's contention refresh at a high concurrent-running count. The
// domains rows touch one job's home domains (O(Δ)); the global-incremental
// row from BenchmarkRefresh re-sums every running job and is the reference.
func BenchmarkRefreshDomains(b *testing.B) {
	for _, doms := range []int{4, 16} {
		b.Run(fmt.Sprintf("domains=%d", doms), func(b *testing.B) {
			s := midRunSimulatorDomains(b, 96, 128, doms)
			rj := s.runList[0]
			s.refreshAfter(rj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.stale = true
				s.refreshAfter(rj)
			}
		})
	}
}
