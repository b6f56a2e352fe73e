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
// times did not (core.TestLazyBankingMatchesEager bounds the drift).
//
// To regenerate after an intentional behaviour change, run the test and
// copy the "got" digests it prints on failure.
var goldenScenarioDigests = map[string]string{
	"baseline": "d3e5ba7b5ade33f87867007770910bdfd98be75793b6878f4cb9bbad0ed91b15",
	"static":   "11ea89970ee0ed1e001f04abecb38328b2ec065eebd2733db5c848979969af60",
	"dynamic":  "224167f5d7db675aa0228999ada8e0511559e5ae85659fda4c3defdd8eb8f1a9",

	"static-domains":  "02e3dc1b202ce60c3420d9dea6a94b9f54e75ff49096effe66295084458dd58b",
	"dynamic-domains": "7279d64395088b2b8e96e339115b426aed948056d80fe0d9f844abb6350f044b",

	"static-nearest":  "be7b760322319617a6a0a1681c24eb5bedd7f13de6877b0bbc7b8133ff05cf1b",
	"dynamic-nearest": "151656e76337784ead8bb65be7258374f8617e9a2750866baf3b1708fa8ab064",

	"static-conservative":  "0a2fa1e09224d67189e472f1e06cd7d8d271ccb948f76b2cb99057f0e1a7720a",
	"dynamic-conservative": "9860090d458ad0626eca82dab48ec4c515fb6285cc39fa57dc5b54bf7779bbf8",
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
