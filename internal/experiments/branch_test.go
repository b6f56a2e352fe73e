package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"dismem/internal/core"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

func branchTestSpec() *ScenarioSpec {
	s := &ScenarioSpec{}
	s.Name = "branch-test"
	s.MemPcts = []int{75}
	s.Policies = []string{"dynamic"}
	return s
}

// pausedBase builds one scenario cell and steps it to the branch point.
func pausedBase(t *testing.T, tel *telemetry.Recorder, at float64) *core.Simulator {
	t.Helper()
	p := Bench()
	s := branchTestSpec()
	tr, err := p.scenarioTrace(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := tr.jobs()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MemConfigByPct(75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.ConfigFor(tr.nodes, mc, corePolicy(t, "dynamic"))
	cfg.Telemetry = tel
	base, err := core.New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	base.Start()
	if err := base.StepUntil(at); err != nil {
		t.Fatal(err)
	}
	return base
}

func corePolicy(t *testing.T, name string) policy.Kind {
	t.Helper()
	k, err := policy.ParseKind(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestBranchNoopAndVariants: the no-op branch's Result equals the base's
// (both equal a fresh run), variant branches produce valid diverging runs,
// and the base recorder carries one KindBranch event per variant.
func TestBranchNoopAndVariants(t *testing.T) {
	var baseLog bytes.Buffer
	tel := telemetry.New(telemetry.Options{Sink: telemetry.NewJSONL(&baseLog)})
	base := pausedBase(t, tel, 3600)

	variants := []BranchVariant{
		{Name: "noop"},
		{Name: "swap-static", Policy: "static"},
		{Name: "no-backfill", Backfill: "none"},
		{Name: "repack", Repack: true},
		{Name: "fast-updates", UpdateInterval: 60},
	}
	baseRes, runs, err := Branch(base, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(variants) {
		t.Fatalf("got %d runs, want %d", len(runs), len(variants))
	}
	if !reflect.DeepEqual(runs[0].Result, baseRes) {
		t.Fatalf("no-op branch diverged from base\nbase:   %+v\nbranch: %+v", baseRes, runs[0].Result)
	}
	if runs[0].Stats.SharedEvents == 0 {
		t.Fatal("no-op branch reports zero shared-prefix events")
	}
	if got := runs[1].Result.Policy; got != "static" {
		t.Fatalf("swap-static branch reports policy %q", got)
	}
	// A repacked branch preempts at least one running job.
	preempted := 0
	for _, rec := range runs[3].Result.Records {
		for _, a := range rec.Attempts {
			if a.How == core.AttemptPreempted {
				preempted++
			}
		}
	}
	if preempted == 0 {
		t.Fatal("repack branch preempted nothing")
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(baseLog.String(), `"ev":"branch"`); got != len(variants) {
		t.Fatalf("base log has %d branch events, want %d", got, len(variants))
	}
	for _, r := range runs {
		if r.Result.Completed == 0 {
			t.Fatalf("branch %q completed no jobs: %+v", r.Name, r.Result)
		}
	}
}

// TestRunBranchSpec drives the daemon-facing entry point end to end.
func TestRunBranchSpec(t *testing.T) {
	p := Bench()
	s := branchTestSpec()
	br := &BranchSpec{
		MemPct: 75, Policy: "dynamic", AtTime: 3600,
		Variants: []BranchVariant{{Name: "noop"}, {Name: "swap", Policy: "static"}},
	}
	res, err := p.RunBranchSpec(context.Background(), s, br)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (base + 2 variants)", len(res.Rows))
	}
	if res.Rows[0].Name != "base" || res.Rows[1].Name != "noop" || res.Rows[2].Name != "swap" {
		t.Fatalf("row order: %+v", res.Rows)
	}
	for i := range res.Rows[:2] {
		if res.Rows[i].Completed == 0 {
			t.Fatalf("row %d completed nothing: %+v", i, res.Rows[i])
		}
	}
	// The no-op branch reproduces the base cell exactly.
	if res.Rows[0].Makespan != res.Rows[1].Makespan || res.Rows[0].Throughput != res.Rows[1].Throughput {
		t.Fatalf("no-op branch diverged from base: %+v vs %+v", res.Rows[0], res.Rows[1])
	}
	if res.Rows[2].Policy != "static" {
		t.Fatalf("swap row policy %q", res.Rows[2].Policy)
	}
}

// TestBranchSpecValidate covers the request validation table. Daemon
// clients see these errors verbatim, so each text is pinned byte for byte.
func TestBranchSpecValidate(t *testing.T) {
	ok := func() *BranchSpec {
		return &BranchSpec{MemPct: 75, Policy: "dynamic", AtTime: 100,
			Variants: []BranchVariant{{Name: "a"}}}
	}
	if err := ok().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		mut        func(*BranchSpec)
	}{
		{"bad-mem", `branch: field "mem_pct": experiments: no memory configuration labelled 33%`,
			func(b *BranchSpec) { b.MemPct = 33 }},
		{"bad-policy", `branch: field "policy": unknown policy "bogus" (want baseline, static, or dynamic)`,
			func(b *BranchSpec) { b.Policy = "bogus" }},
		{"empty-policy", `branch: field "policy": unknown policy "" (want baseline, static, or dynamic)`,
			func(b *BranchSpec) { b.Policy = "" }},
		{"neg-time", `branch: field "at_time_s": negative time -1`,
			func(b *BranchSpec) { b.AtTime = -1 }},
		{"no-variants", `branch: field "variants": at least one variant required`,
			func(b *BranchSpec) { b.Variants = nil }},
		{"dup-variant", `branch: duplicate variant name "a"`,
			func(b *BranchSpec) { b.Variants = append(b.Variants, BranchVariant{Name: "a"}) }},
		{"unnamed", `branch: variant with empty "name"`,
			func(b *BranchSpec) { b.Variants[0].Name = "" }},
		{"bad-backfill", `branch: variant "a": field "backfill": unknown mode "bogus" (want easy, conservative, or none)`,
			func(b *BranchSpec) { b.Variants[0].Backfill = "bogus" }},
		{"bad-vpolicy", `branch: variant "a": field "policy": unknown policy "bogus" (want baseline, static, or dynamic)`,
			func(b *BranchSpec) { b.Variants[0].Policy = "bogus" }},
		{"neg-update", `branch: variant "a": negative update_interval_s`,
			func(b *BranchSpec) { b.Variants[0].UpdateInterval = -5 }},
	} {
		b := ok()
		tc.mut(b)
		err := b.Validate()
		if err == nil {
			t.Fatalf("%s: validation passed", tc.name)
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}
