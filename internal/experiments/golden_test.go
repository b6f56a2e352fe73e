package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"dismem/internal/core"
	"dismem/internal/policy"
)

// Golden digests of one Bench()-preset scenario per policy (job mix 50 %,
// +60 % overestimation, 75 % memory configuration — the BenchmarkScenario
// cell). They were first recorded on the pre-index implementation that
// rescanned and re-sorted the cluster on every borrow; the incremental
// indexes must reproduce the simulation bit-for-bit, so any digest change
// here means an optimisation altered scheduling behaviour and is a bug, not
// drift. static and dynamic were re-recorded once, deliberately, when
// progress banking became lazy: finish times moved in the last bits, start
// times did not (core.TestLazyBankingMatchesEager bounds the drift). Every
// row was re-recorded, deliberately, when synthetic traces began reading one
// shape library mined from a fixed Borg cell instead of drawing a cell from
// their own seed.
//
// To regenerate after an intentional behaviour change, run the test and
// copy the "got" digests it prints on failure.
var goldenScenarioDigests = map[string]string{
	"baseline": "d10d9ead137aac1b55aec3041b8ecbe423a5c2828f91b3b8340bd7b6b48bf48c",
	"static":   "7979e1e4f084def4c5e22915809c9ee6c100a4cabc00f935243dbf9fcd7ec302",
	"dynamic":  "9568e2f5f99d9eb16a1cee88ec81425b1e099dfb32815118fad9b0855392320d",

	"static-domains":  "c438b87804b9cddf6e81e66e10e119bd6508ee6426b137d6806112dc1beba780",
	"dynamic-domains": "ad13ba95c5c676e46fb3ac956fb7d82ff100b9a9c7eea53224c46b65fc76e0a6",

	"static-nearest":  "89a251bf435107a6b1957711ea3d3b2812c0961d66218037af19523324ed82e3",
	"dynamic-nearest": "0b72704995385cbdf32f467ee4c31e6a4a8cf390fc9bbc5ca4d6c5e88d30bae7",

	"static-conservative":  "5f728ba30ae2166b464304e41cde2339abb685766685d95b585f117221fa2b08",
	"dynamic-conservative": "e832621bf3f24c1bd0a5ce4eee69bbf94628243be3e0d22c100343ff6a73d81e",
}

// digestResult folds every determinism-relevant field of a Result — job
// records, attempts, OOM kills, the utilisation integrals — into a sha256
// digest. Floats are folded as exact IEEE-754 bit patterns: two runs are
// "identical" only if every time stamp matches to the last bit.
func digestResult(r *core.Result) string {
	var b strings.Builder
	fb := func(f float64) { fmt.Fprintf(&b, "%016x,", math.Float64bits(f)) }
	fmt.Fprintf(&b, "policy=%s,infeasible=%t,job=%d,", r.Policy, r.Infeasible, r.InfeasibleJob)
	fmt.Fprintf(&b, "completed=%d,timedout=%d,abandoned=%d,oom=%d,nodes=%d,cap=%d,",
		r.Completed, r.TimedOut, r.Abandoned, r.OOMKills, r.Nodes, r.TotalCapacityMB)
	fb(r.Makespan)
	fb(r.AllocMBSeconds)
	fb(r.UsedMBSeconds)
	fb(r.BusyNodeSeconds)
	for i := range r.Records {
		rec := &r.Records[i]
		fmt.Fprintf(&b, "id=%d,outcome=%d,restarts=%d,", rec.Job.ID, rec.Outcome, rec.Restarts)
		fb(rec.Submit)
		fb(rec.FirstStart)
		fb(rec.LastStart)
		fb(rec.Finish)
		for _, a := range rec.Attempts {
			fmt.Fprintf(&b, "how=%d,", a.How)
			fb(a.Start)
			fb(a.End)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenScenarioDigest is the determinism regression gate for the
// incremental cluster-ledger indexes: it runs the BenchmarkScenario cell
// twice per policy and asserts (a) the two runs are bit-identical and
// (b) they match the digest recorded before the indexes existed. The
// "-domains" rows run the dynamic-memory policies under 16 pressure
// domains; they were recorded before the global model became the
// one-domain case of the domain refresh, and pin the D>1 path the same way.
// The "-nearest" rows borrow nearest-first on the designed torus with a
// 0.5 hop penalty; they were recorded before placement and growth became
// one borrow planner, and pin the nearest-first lender order. The
// "-conservative" rows give every examined queued job a reservation in the
// availability profile; they were recorded before the profile's earliest
// fit became one forward sweep, and pin the conservative backfill pass.
func TestGoldenScenarioDigest(t *testing.T) {
	p := Bench()
	trace, err := p.SyntheticTrace(0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MemConfigByPct(75)
	if err != nil {
		t.Fatal(err)
	}
	domains := knobs{pressure: core.PressureDomains, domains: 16}
	nearest := knobs{lender: core.NearestFirst, torus: true, hopPenalty: 0.5}
	conservative := knobs{backfill: core.ConservativeBackfill}
	for _, row := range []struct {
		name string
		kind policy.Kind
		k    knobs
	}{
		{"baseline", policy.Baseline, knobs{}},
		{"static", policy.Static, knobs{}},
		{"dynamic", policy.Dynamic, knobs{}},
		{"static-domains", policy.Static, domains},
		{"dynamic-domains", policy.Dynamic, domains},
		{"static-nearest", policy.Static, nearest},
		{"dynamic-nearest", policy.Dynamic, nearest},
		{"static-conservative", policy.Static, conservative},
		{"dynamic-conservative", policy.Dynamic, conservative},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := p.cellConfig(p.SystemNodes, mc, row.kind, row.k)
			res1, err := simulate(cfg, trace.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := simulate(cfg, trace.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := digestResult(res1), digestResult(res2)
			if d1 != d2 {
				t.Fatalf("two identical runs diverged: %s vs %s", d1, d2)
			}
			want := goldenScenarioDigests[row.name]
			if d1 != want {
				t.Fatalf("digest mismatch for %s:\n  got  %s\n  want %s\n"+
					"(events fired: run1=%d jobs, completed=%d oom=%d)",
					row.name, d1, want, len(res1.Records), res1.Completed, res1.OOMKills)
			}
		})
	}
}
