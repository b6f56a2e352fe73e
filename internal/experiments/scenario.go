package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dismem/internal/core"
	"dismem/internal/policy"
	"dismem/internal/sweep"
	"dismem/internal/telemetry"
	"dismem/internal/tracegen"
)

// ScenarioSpec is a user-defined experiment, loaded from JSON: one
// generated workload swept over memory configurations and policies with
// custom simulator knobs. It exposes the same machinery the built-in
// figures use, so downstream users can define studies without writing Go.
//
// Example:
//
//	{
//	  "name": "my-study",
//	  "trace": {"model": "lublin", "large_frac": 0.25, "overestimation": 0.5},
//	  "mem_pcts": [50, 75, 100],
//	  "policies": ["static", "dynamic"],
//	  "backfill": "conservative",
//	  "update_interval_s": 120,
//	  "oom": "checkpoint_restart"
//	}
type ScenarioSpec struct {
	Name  string `json:"name"`
	Trace struct {
		Model          string  `json:"model"`          // cirne (default) | lublin
		LargeFrac      float64 `json:"large_frac"`     // fraction of large-memory jobs
		Overestimation float64 `json:"overestimation"` // request inflation
		ChainFrac      float64 `json:"chain_frac"`     // dependency chains
		Load           float64 `json:"load"`           // 0 = preset default
		Days           float64 `json:"days"`           // 0 = preset default
		SystemNodes    int     `json:"system_nodes"`   // 0 = preset default
		Seed           int64   `json:"seed"`           // 0 = preset default
	} `json:"trace"`
	MemPcts          []int    `json:"mem_pcts"`          // empty = all eight configurations
	Policies         []string `json:"policies"`          // empty = baseline, static, dynamic
	Backfill         string   `json:"backfill"`          // easy (default) | conservative | none
	UpdateInterval   float64  `json:"update_interval_s"` // 0 = preset default
	OOM              string   `json:"oom"`               // fail_restart (default) | checkpoint_restart
	EnforceTimeLimit bool     `json:"enforce_time_limit"`
	Pressure         string   `json:"pressure"` // global (default) | domains
	Domains          int      `json:"domains"`  // pressure-domain count (0 = derive; needs pressure=domains)
}

// LoadScenario parses and validates a spec. Unknown fields are rejected
// (the daemon serves untrusted documents, and a typoed knob silently
// falling back to a default would return a confidently wrong simulation),
// and every enum error names the offending JSON field.
func LoadScenario(r io.Reader) (*ScenarioSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ScenarioSpec
	if err := dec.Decode(&s); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("scenario: empty spec (want a JSON object)")
		}
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if s.Name == "" {
		s.Name = "scenario"
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks every enum and range field, naming the JSON field in each
// error so a daemon client can map the message back to its document.
func (s *ScenarioSpec) Validate() error {
	if _, err := s.resolve(); err != nil {
		return err
	}
	for _, pct := range s.MemPcts {
		if _, err := MemConfigByPct(pct); err != nil {
			return fmt.Errorf("scenario: field %q: %v", "mem_pcts", err)
		}
	}
	if s.Trace.LargeFrac < 0 || s.Trace.LargeFrac > 1 {
		return fmt.Errorf("scenario: field %q: %g out of [0,1]", "trace.large_frac", s.Trace.LargeFrac)
	}
	if s.Trace.ChainFrac < 0 || s.Trace.ChainFrac > 1 {
		return fmt.Errorf("scenario: field %q: %g out of [0,1]", "trace.chain_frac", s.Trace.ChainFrac)
	}
	if s.Trace.Overestimation < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "trace.overestimation", s.Trace.Overestimation)
	}
	// Zero selects the preset's value; a negative one is a typo, not a
	// request for the default, so it is rejected rather than replaced.
	if s.Trace.Load < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "trace.load", s.Trace.Load)
	}
	if s.Trace.Days < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "trace.days", s.Trace.Days)
	}
	if s.Trace.SystemNodes < 0 {
		return fmt.Errorf("scenario: field %q: %d is negative", "trace.system_nodes", s.Trace.SystemNodes)
	}
	if s.UpdateInterval < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "update_interval_s", s.UpdateInterval)
	}
	return nil
}

// specModes is a spec's mode names parsed once. Validate, ScenarioKey,
// RunScenarioSpecCtx and RunBranchSpec all read the spec's modes through
// it: its policy axis and the knobs every cell of the spec sets, so a
// branch replays exactly the configuration of the cell it branched from.
type specModes struct {
	policies []policy.Kind
	knobs    knobs
}

// allPolicies is the policy axis of a spec that names none. Read only.
var allPolicies = []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}

// resolve parses the spec's mode names, naming the JSON field in each error.
func (s *ScenarioSpec) resolve() (specModes, error) {
	m := specModes{policies: allPolicies, knobs: knobs{
		domains: s.Domains, update: s.UpdateInterval, enforce: s.EnforceTimeLimit}}
	if len(s.Policies) > 0 {
		m.policies = make([]policy.Kind, len(s.Policies))
	}
	var err error
	for i, name := range s.Policies {
		if m.policies[i], err = policy.ParseKind(name); err != nil {
			return m, fmt.Errorf("scenario: field %q: %v", fmt.Sprintf("policies[%d]", i), err)
		}
	}
	if m.knobs.backfill, err = core.ParseBackfill(s.Backfill); err != nil {
		return m, fmt.Errorf("scenario: field %q: %v", "backfill", err)
	}
	if m.knobs.oom, err = core.ParseOOM(s.OOM); err != nil {
		return m, fmt.Errorf("scenario: field %q: %v", "oom", err)
	}
	if m.knobs.pressure, err = core.ParsePressure(s.Pressure); err != nil {
		return m, fmt.Errorf("scenario: field %q: %v", "pressure", err)
	}
	switch {
	case m.knobs.pressure == core.PressureGlobal && s.Domains != 0:
		return m, fmt.Errorf("scenario: field %q: set to %d without %q: %q",
			"domains", s.Domains, "pressure", "domains")
	case s.Domains < 0:
		return m, fmt.Errorf("scenario: field %q: negative count %d", "domains", s.Domains)
	}
	return m, nil
}

// ScenarioResult is the sweep outcome: one row per (memory, policy).
type ScenarioResult struct {
	Name string
	Rows []ScenarioRow
}

// ScenarioRow carries absolute metrics (the spec defines no baseline to
// normalise against).
type ScenarioRow struct {
	MemPct         int
	Policy         string
	Throughput     float64 // jobs/s; NaN = infeasible
	MedianResponse float64
	OOMKills       int
	MeanStretch    float64
	// Telemetry is the cell's captured event log, infeasible cells
	// included: set by RunScenarioSpecCtx, nil from RunScenarioSpec. Rows
	// that name one cell share its log. It is closed, so any number of
	// WriteJSONL calls may render it concurrently.
	Telemetry *telemetry.Log
}

// scenarioTraceParams resolves the preset/spec overlay into the trace
// pipeline's parameters: spec values override the preset's scale knobs
// where set. RunScenarioSpecCtx and ScenarioKey share it, so the key can
// never drift from what actually runs.
func (p Preset) scenarioTraceParams(s *ScenarioSpec) tracegen.Params {
	nodes := p.SystemNodes
	if s.Trace.SystemNodes > 0 {
		nodes = s.Trace.SystemNodes
	}
	load := p.Load
	if s.Trace.Load > 0 {
		load = s.Trace.Load
	}
	days := p.Days
	if s.Trace.Days > 0 {
		days = s.Trace.Days
	}
	seed := p.Seed
	if s.Trace.Seed != 0 {
		seed = s.Trace.Seed
	}
	return tracegen.Params{
		SystemNodes:       nodes,
		Load:              load,
		Days:              days,
		LargeFrac:         s.Trace.LargeFrac,
		Overestimation:    s.Trace.Overestimation,
		NormalNodeMB:      NormalNodeMB,
		GoogleCollections: p.GoogleCollections,
		Model:             s.Trace.Model,
		Cirne:             p.Cirne,
		Seed:              seed,
	}
}

// resolvedMemPcts returns the memory axis the spec sweeps: its own list, or
// all eight paper configurations when empty.
func (s *ScenarioSpec) resolvedMemPcts() []int {
	if len(s.MemPcts) > 0 {
		return s.MemPcts
	}
	var mems []int
	for _, mc := range MemoryConfigs() {
		mems = append(mems, mc.LabelPct)
	}
	return mems
}

// ScenarioKey returns the canonical SHA-256 identity of (preset, spec) —
// the same content-addressing scheme as tracegen.Key, extended over the
// sweep dimensions. Two requests with this key, run at this preset, produce
// byte-identical results, so the dmpd daemon keys its result cache on it.
// The trace portion reuses tracegen.Key on the resolved parameters, which
// already canonicalises default spellings and pointer identity.
func (p Preset) ScenarioKey(s *ScenarioSpec) (string, error) {
	m, err := s.resolve()
	if err != nil {
		return "", err
	}
	k := m.knobs.resolved(p)
	c := tracegen.NewCanon("dismem/scenario/v1")
	c.Str("name", s.Name)
	c.Str("trace", tracegen.Key(p.scenarioTraceParams(s)))
	c.Float("chain", s.Trace.ChainFrac)
	for _, pct := range s.resolvedMemPcts() {
		c.Int("mem", int64(pct))
	}
	for _, pol := range m.policies {
		c.Str("pol", pol.String())
	}
	c.Str("backfill", k.backfill.String())
	c.Str("oom", k.oom.String())
	c.Str("pressure", k.pressure.String())
	c.Int("domains", int64(k.domains))
	c.Float("update", k.update)
	enforce := int64(0)
	if k.enforce {
		enforce = 1
	}
	c.Int("enforce", enforce)
	return c.Sum(), nil
}

// RunScenarioSpec executes the spec at the preset's scale. It captures no
// telemetry.
func (p Preset) RunScenarioSpec(s *ScenarioSpec) (*ScenarioResult, error) {
	return p.runScenario(context.Background(), s, false, 0)
}

// RunScenarioSpecCtx is RunScenarioSpec under a context, capturing each
// simulated cell's telemetry into its own log (ScenarioRow.Telemetry), with
// pool samples every sampleEvery simulated seconds (0 = events only).
// Cancellation aborts in-flight cell simulations (polled between events via
// core.Config.Interrupt) and skips cells not yet started, returning the
// context's error. The sweep is a view over a table of its own, which
// still runs every cell to a result or error before returning, so a
// cancelled run never leaks tasks into the shared pool. An uncancelled
// context changes nothing, and capture perturbs no result: the rows'
// metrics are byte-identical to RunScenarioSpec's.
func (p Preset) RunScenarioSpecCtx(ctx context.Context, s *ScenarioSpec, sampleEvery float64) (*ScenarioResult, error) {
	return p.runScenario(ctx, s, true, sampleEvery)
}

// runScenario sweeps the spec's cells through a table of its own, which
// captures each cell's telemetry when capture is set.
func (p Preset) runScenario(ctx context.Context, s *ScenarioSpec, capture bool, sampleEvery float64) (*ScenarioResult, error) {
	m, err := s.resolve()
	if err != nil {
		return nil, err
	}
	tr, err := p.scenarioTrace(ctx, s)
	if err != nil {
		return nil, err
	}
	var refs []cellRef
	for _, pct := range s.resolvedMemPcts() {
		mc, err := MemConfigByPct(pct)
		if err != nil {
			return nil, err
		}
		for _, pol := range m.policies {
			refs = append(refs, cellRef{tr: tr, mc: mc, pol: pol, k: m.knobs})
		}
	}
	c := &cells{p: p, interrupt: interrupt(ctx), capture: capture, sampleEvery: sampleEvery,
		m: map[cellKey]*sweep.Future[outcome]{}}
	outs, err := sweep.CollectValues(c.getAll(refs))
	if err != nil {
		return nil, err
	}
	rows := make([]ScenarioRow, len(refs))
	for i, r := range refs {
		o := outs[i]
		rows[i] = ScenarioRow{MemPct: r.mc.LabelPct, Policy: r.pol.String(),
			Throughput: Infeasible, MedianResponse: Infeasible, MeanStretch: Infeasible, Telemetry: o.log}
		if !o.infeasible {
			rows[i].Throughput, rows[i].MedianResponse = o.throughput, o.medianResponse
			rows[i].OOMKills, rows[i].MeanStretch = o.oomKills, o.meanStretch
		}
	}
	return &ScenarioResult{Name: s.Name, Rows: rows}, nil
}

// interrupt is the core.Config.Interrupt of a run under ctx. It is nil
// when ctx cannot be cancelled: ctx.Err is nil until cancellation, so an
// uncancelled run is provably unperturbed (core's nil-interrupt purity
// test).
func interrupt(ctx context.Context) func() error {
	if ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %q\n\n", r.Name)
	fmt.Fprintf(&b, "%6s %-9s %14s %14s %6s %9s\n", "mem%", "policy", "jobs/s", "median-resp(s)", "OOM", "stretch")
	for _, row := range r.Rows {
		if isNaN(row.Throughput) {
			fmt.Fprintf(&b, "%6d %-9s %14s %14s %6s %9s\n", row.MemPct, row.Policy, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%6d %-9s %14.6f %14.0f %6d %9.3f\n",
			row.MemPct, row.Policy, row.Throughput, row.MedianResponse, row.OOMKills, row.MeanStretch)
	}
	return b.String()
}

// WriteCSV emits mem_pct,policy,throughput,median_response_s,oom_kills,mean_stretch.
func (r *ScenarioResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			strconv.Itoa(row.MemPct), row.Policy,
			f2s(row.Throughput), f2s(row.MedianResponse),
			strconv.Itoa(row.OOMKills), f2s(row.MeanStretch),
		})
	}
	return writeAll(w, []string{"mem_pct", "policy", "throughput", "median_response_s", "oom_kills", "mean_stretch"}, rows)
}
