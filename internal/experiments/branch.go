package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"dismem/internal/core"
	"dismem/internal/job"
	"dismem/internal/policy"
	"dismem/internal/sweep"
	"dismem/internal/tracegen"
)

// What-if branching: pause one simulation at a decision point, fork it
// copy-on-write into N variants, and run base and branches concurrently on
// the sweep pool. The shared prefix is simulated once; each branch pays only
// for its own suffix plus the ledger shards it actually touches, which is
// what makes late-diverging what-if sweeps O(suffix) instead of O(N runs).

// BranchVariant is one what-if overlay applied to a forked simulator. Zero
// fields keep the base's configuration, so the zero variant is the no-op
// branch — byte-identical to the base's own future, as the differential
// suite proves.
type BranchVariant struct {
	Name string `json:"name"`
	// Policy swaps the placement policy for the remainder of the run:
	// baseline, static, or dynamic. Empty keeps the base's policy.
	Policy string `json:"policy"`
	// Backfill swaps the backfill algorithm: easy, conservative, or none.
	Backfill string `json:"backfill"`
	// Repack deschedules every running job at the branch point — progress
	// checkpointed in full, allocations released — and lets the scheduler
	// repack the cluster from a clean slate (the descheduling study).
	Repack bool `json:"repack"`
	// UpdateInterval overrides the mean memory-update period (the
	// malleability knob) for jobs dispatched after the branch point.
	UpdateInterval float64 `json:"update_interval_s"`
}

// Validate checks the variant's enums.
func (v *BranchVariant) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("branch: variant with empty %q", "name")
	}
	if v.Policy != "" {
		if _, err := policy.ParseKind(v.Policy); err != nil {
			return fmt.Errorf("branch: variant %q: field %q: %v", v.Name, "policy", err)
		}
	}
	if v.Backfill != "" {
		if _, err := core.ParseBackfill(v.Backfill); err != nil {
			return fmt.Errorf("branch: variant %q: field %q: %v", v.Name, "backfill", err)
		}
	}
	if v.UpdateInterval < 0 {
		return fmt.Errorf("branch: variant %q: negative update_interval_s", v.Name)
	}
	return nil
}

// applyVariant applies one overlay to a freshly forked simulator.
func applyVariant(f *core.Simulator, v BranchVariant) error {
	if v.Policy != "" {
		k, err := policy.ParseKind(v.Policy)
		if err != nil {
			return err
		}
		f.SetPolicy(k)
	}
	if v.Backfill != "" {
		m, err := core.ParseBackfill(v.Backfill)
		if err != nil {
			return err
		}
		f.SetBackfill(m)
	}
	if v.UpdateInterval > 0 {
		f.SetUpdateInterval(v.UpdateInterval)
	}
	if v.Repack {
		f.DescheduleRepack()
	}
	return nil
}

// BranchRun is one branch's outcome: its full simulation Result plus the
// fork-economics counters (shared-prefix events inherited, CoW copies paid).
type BranchRun struct {
	Name   string
	Result *core.Result
	Stats  core.BranchStats
}

// Branch forks the paused base simulator once per variant, applies each
// overlay, and finishes the base and every branch concurrently on the sweep
// pool. The base must be started, stepped to the desired branch point
// (core.Simulator.StepUntil), and not finished. On return the base's Result
// is first, branch runs follow in variant order. Branches record no
// telemetry of their own; the base's stream records each branch's fork
// economics.
func Branch(base *core.Simulator, variants []BranchVariant) (*core.Result, []BranchRun, error) {
	forks := make([]*core.Simulator, len(variants))
	for i, v := range variants {
		if err := v.Validate(); err != nil {
			return nil, nil, err
		}
		f, err := base.Fork(nil)
		if err != nil {
			return nil, nil, err
		}
		if err := applyVariant(f, v); err != nil {
			return nil, nil, err
		}
		forks[i] = f
	}

	// Base and branches are independent after Fork; run them all
	// concurrently. Task 0 is the base.
	tasks := make([]sweep.Task[*core.Result], 0, len(forks)+1)
	tasks = append(tasks, base.Finish)
	for _, f := range forks {
		tasks = append(tasks, f.Finish)
	}
	results, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, nil, err
	}

	runs := make([]BranchRun, len(forks))
	for i, f := range forks {
		runs[i] = BranchRun{Name: variants[i].Name, Result: results[i+1], Stats: f.BranchStats()}
	}
	// Record the fork economics on the base's stream — after the branch
	// runs, so the CoW counters reflect what each branch actually paid.
	for _, r := range runs {
		base.Telemetry().Branch(r.Name, r.Stats.SharedEvents, r.Stats.NodeCopies, r.Stats.ShardThaws)
	}
	return results[0], runs, nil
}

// BranchSpec is the what-if request the daemon serves: one (memory, policy)
// cell of a scenario re-simulated to a branch point and forked under variant
// overlays.
type BranchSpec struct {
	MemPct   int             `json:"mem_pct"`
	Policy   string          `json:"policy"`
	AtTime   float64         `json:"at_time_s"` // branch point; 0 = final state
	Variants []BranchVariant `json:"variants"`
}

// Validate checks the branch request against the paper's configuration axes.
func (b *BranchSpec) Validate() error {
	if _, err := MemConfigByPct(b.MemPct); err != nil {
		return fmt.Errorf("branch: field %q: %v", "mem_pct", err)
	}
	if _, err := policy.ParseKind(b.Policy); err != nil {
		return fmt.Errorf("branch: field %q: %v", "policy", err)
	}
	if b.AtTime < 0 {
		return fmt.Errorf("branch: field %q: negative time %g", "at_time_s", b.AtTime)
	}
	if len(b.Variants) == 0 {
		return fmt.Errorf("branch: field %q: at least one variant required", "variants")
	}
	seen := map[string]bool{}
	for i := range b.Variants {
		if err := b.Variants[i].Validate(); err != nil {
			return err
		}
		if seen[b.Variants[i].Name] {
			return fmt.Errorf("branch: duplicate variant name %q", b.Variants[i].Name)
		}
		seen[b.Variants[i].Name] = true
	}
	return nil
}

// ValidateFor checks the branch request against a concrete scenario: the
// branched (memory, policy) cell must be one the scenario actually sweeps,
// since a branch re-simulates that cell's prefix and a cell the scenario
// never ran would silently answer a different question than the cached
// result the client branched from.
func (b *BranchSpec) ValidateFor(s *ScenarioSpec) error {
	_, _, err := b.cellOf(s)
	return err
}

// cellOf validates the request against s and returns the scenario's
// resolved modes and the branched cell's policy.
func (b *BranchSpec) cellOf(s *ScenarioSpec) (specModes, policy.Kind, error) {
	if err := b.Validate(); err != nil {
		return specModes{}, 0, err
	}
	mem := false
	for _, pct := range s.resolvedMemPcts() {
		if pct == b.MemPct {
			mem = true
			break
		}
	}
	if !mem {
		return specModes{}, 0, fmt.Errorf("branch: scenario %q has no %d%% memory cell", s.Name, b.MemPct)
	}
	k, err := policy.ParseKind(b.Policy)
	if err != nil {
		return specModes{}, 0, err
	}
	m, err := s.resolve()
	if err != nil {
		return m, 0, err
	}
	if !slices.Contains(m.policies, k) {
		return m, 0, fmt.Errorf("branch: scenario %q has no %q policy cell", s.Name, b.Policy)
	}
	return m, k, nil
}

// LoadBranchSpec parses and validates a branch request document. Unknown
// fields are rejected for the same reason LoadScenario rejects them: the
// daemon serves untrusted documents, and a typoed overlay knob silently
// ignored would return a confidently wrong what-if.
func LoadBranchSpec(r io.Reader) (*BranchSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var b BranchSpec
	if err := dec.Decode(&b); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("branch: empty spec (want a JSON object)")
		}
		return nil, fmt.Errorf("branch: %v", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// BranchKey returns the canonical SHA-256 identity of a branch request
// against a completed scenario: the parent scenario's key folded with every
// branch dimension. Two requests with the same key, run at the same preset,
// produce byte-identical branch results, so the dmpd daemon caches and
// single-flights branch computations under it exactly like scenarios.
func BranchKey(scenarioID string, br *BranchSpec) string {
	c := tracegen.NewCanon("dismem/branch/v1")
	c.Str("scenario", scenarioID)
	c.Int("mem", int64(br.MemPct))
	c.Str("pol", strings.ToLower(br.Policy))
	c.Float("at", br.AtTime)
	for _, v := range br.Variants {
		c.Str("var", v.Name)
		c.Str("vpol", strings.ToLower(v.Policy))
		c.Str("vbf", strings.ToLower(v.Backfill))
		repack := int64(0)
		if v.Repack {
			repack = 1
		}
		c.Int("vrepack", repack)
		c.Float("vupdate", v.UpdateInterval)
	}
	return c.Sum()
}

// BranchRow is one branch's summary in a BranchResult.
type BranchRow struct {
	Name         string  `json:"name"`
	Policy       string  `json:"policy"`
	Completed    int     `json:"completed"`
	OOMKills     int     `json:"oom_kills"`
	Makespan     float64 `json:"makespan_s"`
	Throughput   float64 `json:"throughput"`
	MeanStretch  float64 `json:"mean_stretch"`
	SharedEvents uint64  `json:"shared_events"`
	NodeCopies   int64   `json:"cow_node_copies"`
	ShardThaws   int64   `json:"cow_shard_thaws"`
}

// BranchResult is the daemon-facing outcome: the base cell's row (variant
// name "base") followed by one row per variant.
type BranchResult struct {
	Name string      `json:"name"`
	Rows []BranchRow `json:"rows"`
}

func branchRow(name string, res *core.Result, st core.BranchStats) BranchRow {
	row := BranchRow{
		Name: name, Policy: res.Policy,
		SharedEvents: st.SharedEvents, NodeCopies: st.NodeCopies, ShardThaws: st.ShardThaws,
	}
	if !res.Infeasible {
		row.Completed = res.Completed
		row.OOMKills = res.OOMKills
		row.Makespan = res.Makespan
		row.Throughput = res.Throughput()
		row.MeanStretch = res.MeanStretch()
	}
	return row
}

// RunBranchSpec re-simulates the selected scenario cell to the branch point
// and fans the variants out as concurrent copy-on-write branches. An AtTime
// of zero (or past the cell's last event) brands the final state: every
// event fires in the prefix and the branches replay only their overlays'
// consequences — useful with repack variants. Cancellation via ctx aborts
// the prefix between events: StepUntil polls it through the simulator's one
// event loop, as Finish does. The concurrent branch runs are not
// interruptible (they own no connection state and finish in bounded time).
func (p Preset) RunBranchSpec(ctx context.Context, s *ScenarioSpec, br *BranchSpec) (*BranchResult, error) {
	m, pol, err := br.cellOf(s)
	if err != nil {
		return nil, err
	}
	mc, err := MemConfigByPct(br.MemPct)
	if err != nil {
		return nil, err
	}
	tr, err := p.scenarioTrace(ctx, s)
	if err != nil {
		return nil, err
	}
	jobs, err := tr.jobs()
	if err != nil {
		return nil, err
	}

	cfg := p.cellConfig(tr.nodes, mc, pol, m.knobs)
	cfg.Interrupt = interrupt(ctx)
	base, err := core.New(cfg, jobs)
	if err != nil {
		return nil, err
	}
	base.Start()
	at := br.AtTime
	if at == 0 {
		at = infTime
	}
	if err := base.StepUntil(at); err != nil {
		return nil, err
	}
	baseRes, runs, err := Branch(base, br.Variants)
	if err != nil {
		return nil, err
	}

	out := &BranchResult{Name: s.Name}
	out.Rows = append(out.Rows, branchRow("base", baseRes, core.BranchStats{}))
	for _, r := range runs {
		out.Rows = append(out.Rows, branchRow(r.Name, r.Result, r.Stats))
	}
	return out, nil
}

// infTime is "after every event": StepUntil fires the whole timeline.
const infTime = 1e300

// scenarioTrace resolves the spec's trace (cached) and overlays dependency
// chains: the one trace of every cell of RunScenarioSpecCtx and of the
// cell RunBranchSpec branches, so a branched cell replays the sweep's
// precise workload. Dependency chains are a BuildJobs option the pipeline
// does not thread through, so they are drawn over clones of the cached
// jobs, which are shared and never written.
func (p Preset) scenarioTrace(ctx context.Context, s *ScenarioSpec) (trace, error) {
	params := p.scenarioTraceParams(s)
	if err := ctx.Err(); err != nil {
		return trace{}, err
	}
	out, err := tracegen.Cached(params)
	if err != nil {
		return trace{}, err
	}
	tr := trace{tracegen.Key(params), params.SystemNodes, func() ([]*job.Job, error) { return out.Jobs, nil }}
	if s.Trace.ChainFrac == 0 {
		return tr, nil
	}
	jobs := make([]*job.Job, len(out.Jobs))
	for i, jb := range out.Jobs {
		clone := *jb
		jobs[i] = &clone
	}
	chainRng := newRand(params.Seed + 99)
	for i := range jobs {
		if i > 0 && chainRng.Float64() < s.Trace.ChainFrac {
			back := 1 + chainRng.Intn(min(i, 5))
			jobs[i].DependsOn = jobs[i].ID - back
		}
	}
	tr.id += " chains " + strconv.FormatFloat(s.Trace.ChainFrac, 'g', -1, 64)
	tr.jobs = func() ([]*job.Job, error) { return jobs, nil }
	return tr, nil
}
