package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"dismem/internal/job"
	"dismem/internal/sim"
)

// eagerBankingFile holds the outputs of the differential scenarios as the
// simulator produced them when it still banked every running job's progress
// on every event. It was recorded once from that implementation and is
// frozen test data: re-recording it from the current code would make the
// equivalence test below compare the simulator with itself.
const eagerBankingFile = "testdata/eager_banking.json"

// lazyBankingTol is the relative bound within which times and utilisation
// integrals must match the eager recording. Lazy banking accrues progress in
// fewer, longer steps, so only the float rounding of the accumulated sums
// may differ; the schedule itself may not.
const lazyBankingTol = 1e-12

type bankingRun struct {
	Name       string       `json:"name"`
	Makespan   float64      `json:"makespan"`
	UsedMBs    float64      `json:"used_mb_s"`
	AllocMBs   float64      `json:"alloc_mb_s"`
	BusyNodeS  float64      `json:"busy_node_s"`
	OOMKills   int          `json:"oom_kills"`
	Infeasible bool         `json:"infeasible,omitempty"`
	Jobs       []bankingJob `json:"jobs"`
}

type bankingJob struct {
	ID       int              `json:"id"`
	Outcome  string           `json:"outcome"`
	Restarts int              `json:"restarts"`
	Finish   float64          `json:"finish"`
	Attempts []bankingAttempt `json:"attempts"`
}

type bankingAttempt struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	How   string  `json:"how"`
}

// bankingScenario is one recorded run: a differential scenario under one
// contention model.
type bankingScenario struct {
	name string
	cfg  Config
	jobs func() []*job.Job
}

// eagerUsageKinds is the number of usage shapes differentialScenario drew
// from when the eager recording was made. Later shapes change every
// scenario's draws, and the eager simulator is gone, so the recording
// keeps the first four.
const eagerUsageKinds = 4

// bankingScenarios enumerates the differential scenarios (policies ×
// backfill × OOM mode × topology) under both the global contention model
// and three pressure domains, with the recording's usage shapes.
func bankingScenarios() []bankingScenario {
	var out []bankingScenario
	for seed := int64(0); seed < 30; seed++ {
		cfg, mkJobs := differentialScenarioKinds(seed, eagerUsageKinds)
		dc := cfg
		dc.Pressure = PressureDomains
		dc.Domains = 3
		out = append(out,
			bankingScenario{fmt.Sprintf("seed=%d/global", seed), cfg, mkJobs},
			bankingScenario{fmt.Sprintf("seed=%d/domains", seed), dc, mkJobs})
	}
	return out
}

// summarizeBanking extracts the outputs the equivalence test compares.
func summarizeBanking(name string, res *Result) bankingRun {
	r := bankingRun{
		Name: name, Makespan: res.Makespan, UsedMBs: res.UsedMBSeconds,
		AllocMBs: res.AllocMBSeconds, BusyNodeS: res.BusyNodeSeconds,
		OOMKills: res.OOMKills, Infeasible: res.Infeasible,
	}
	for _, rec := range res.Records {
		bj := bankingJob{ID: rec.Job.ID, Outcome: rec.Outcome.String(), Restarts: rec.Restarts, Finish: rec.Finish}
		for _, a := range rec.Attempts {
			bj.Attempts = append(bj.Attempts, bankingAttempt{Start: a.Start, End: a.End, How: a.How.String()})
		}
		r.Jobs = append(r.Jobs, bj)
	}
	return r
}

// relClose reports whether a and b agree within lazyBankingTol relative to
// the larger magnitude; sentinels (-1) and zeros must match exactly.
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= lazyBankingTol*math.Max(math.Abs(a), math.Abs(b))
}

// TestLazyBankingMatchesEager replays the differential scenarios and
// compares them with the recording of the eager-banking simulator: every
// job must reach the same outcome with the same restarts and the same
// attempt structure, and every time and utilisation integral must agree
// within lazyBankingTol. It also reports the largest relative deviation
// seen, so a drift towards the bound is visible before it fails.
func TestLazyBankingMatchesEager(t *testing.T) {
	raw, err := os.ReadFile(eagerBankingFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []bankingRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	scen := bankingScenarios()
	if len(want) != len(scen) {
		t.Fatalf("recording has %d runs, scenarios %d", len(want), len(scen))
	}
	var worst float64
	check := func(t *testing.T, what string, w, g float64) {
		t.Helper()
		if !relClose(w, g) {
			t.Errorf("%s: eager %v, lazy %v (rel %.3g)", what, w, g, math.Abs(w-g)/math.Max(math.Abs(w), math.Abs(g)))
		}
		if w != g {
			worst = math.Max(worst, math.Abs(w-g)/math.Max(math.Abs(w), math.Abs(g)))
		}
	}
	for i, sc := range scen {
		w := want[i]
		t.Run(sc.name, func(t *testing.T) {
			if w.Name != sc.name {
				t.Fatalf("recording run %d is %q", i, w.Name)
			}
			res, _ := runVariant(t, sc.cfg, sc.jobs(), 0)
			g := summarizeBanking(sc.name, res)
			if g.OOMKills != w.OOMKills || g.Infeasible != w.Infeasible || len(g.Jobs) != len(w.Jobs) {
				t.Fatalf("run shape: eager oom=%d infeasible=%v jobs=%d, lazy oom=%d infeasible=%v jobs=%d",
					w.OOMKills, w.Infeasible, len(w.Jobs), g.OOMKills, g.Infeasible, len(g.Jobs))
			}
			check(t, "makespan", w.Makespan, g.Makespan)
			check(t, "UsedMBSeconds", w.UsedMBs, g.UsedMBs)
			check(t, "AllocMBSeconds", w.AllocMBs, g.AllocMBs)
			check(t, "BusyNodeSeconds", w.BusyNodeS, g.BusyNodeS)
			for k, wj := range w.Jobs {
				gj := g.Jobs[k]
				if gj.ID != wj.ID || gj.Outcome != wj.Outcome || gj.Restarts != wj.Restarts || len(gj.Attempts) != len(wj.Attempts) {
					t.Fatalf("job %d: eager %s/%d restarts/%d attempts, lazy job %d %s/%d/%d",
						wj.ID, wj.Outcome, wj.Restarts, len(wj.Attempts), gj.ID, gj.Outcome, gj.Restarts, len(gj.Attempts))
				}
				check(t, fmt.Sprintf("job %d finish", wj.ID), wj.Finish, gj.Finish)
				for a, wa := range wj.Attempts {
					ga := gj.Attempts[a]
					if ga.How != wa.How {
						t.Fatalf("job %d attempt %d: eager %s, lazy %s", wj.ID, a, wa.How, ga.How)
					}
					check(t, fmt.Sprintf("job %d attempt %d start", wj.ID, a), wa.Start, ga.Start)
					check(t, fmt.Sprintf("job %d attempt %d end", wj.ID, a), wa.End, ga.End)
				}
			}
		})
	}
	t.Logf("largest relative deviation from eager banking: %.3g (bound %g)", worst, lazyBankingTol)
}

// bankingState is one running job's banking state before an event.
type bankingState struct {
	slow, lastT, finishAt float64
	updateEv              sim.Handle
}

// snapshotBanking records every running job's banking state.
func snapshotBanking(s *Simulator) map[*runningJob]bankingState {
	m := make(map[*runningJob]bankingState, len(s.runList))
	for _, rj := range s.runList {
		m[rj] = bankingState{rj.slow, rj.lastT, rj.finishEv.At(), rj.updateEv}
	}
	return m
}

// checkBankingContract asserts the cost contract of lazy banking after one
// event:
//
//   - a job that was running before and after the event, whose slowdown did
//     not change and whose own memory update did not fire, was neither
//     banked nor refinished: its lastT and finish-event time are untouched;
//   - every domain's remote-holding list holds exactly the running jobs
//     with remote memory and a compute node in that domain, in ascending ID
//     order, and each job's remote flag says whether it holds any.
func checkBankingContract(t *testing.T, s *Simulator, before map[*runningJob]bankingState) {
	t.Helper()
	for _, rj := range s.runList {
		b, ok := before[rj]
		if !ok || rj.slow != b.slow || rj.updateEv != b.updateEv {
			continue
		}
		if rj.lastT != b.lastT || math.Float64bits(rj.finishEv.At()) != math.Float64bits(b.finishAt) {
			t.Fatalf("t=%v job %d: slowdown unchanged at %v but lastT %v -> %v, finish %v -> %v",
				s.eng.Now(), rj.j.ID, rj.slow, b.lastT, rj.lastT, b.finishAt, rj.finishEv.At())
		}
	}
	want := make([][]*runningJob, len(s.domRemote))
	for _, rj := range s.runList {
		holds := rj.alloc.RemoteMB() > 0
		if rj.remote != holds {
			t.Fatalf("t=%v job %d: remote flag %v with %d MB remote", s.eng.Now(), rj.j.ID, rj.remote, rj.alloc.RemoteMB())
		}
		if !holds {
			continue
		}
		seen := map[int]bool{}
		for i := range rj.alloc.PerNode {
			if d := rescanDomain(s, rj.alloc.PerNode[i].Node); !seen[d] {
				seen[d] = true
				want[d] = append(want[d], rj)
			}
		}
	}
	for d := range want {
		got := s.domRemote[d]
		if len(got) != len(want[d]) {
			t.Fatalf("t=%v: domain %d remote-holding list has %d jobs, want %d", s.eng.Now(), d, len(got), len(want[d]))
		}
		for i := range want[d] {
			if got[i] != want[d][i] {
				t.Fatalf("t=%v: domain %d remote-holding list[%d] is job %d, want job %d", s.eng.Now(), d, i, got[i].j.ID, want[d][i].j.ID)
			}
		}
	}
}
