// Package core is the paper's primary contribution: a discrete-event
// simulator of a Slurm-managed HPC cluster with disaggregated memory and
// dynamic memory provisioning.
//
// The Simulator wires together the event engine (internal/sim), the cluster
// memory ledger (internal/cluster), the allocation policies
// (internal/policy), the FIFO + EASY-backfill scheduler (internal/sched) and
// the remote-memory contention model (internal/slowdown). The dynamic
// policy's Monitor → Decider → Actuator → Executor loop (paper §2.2–2.3) is
// realised as per-job memory-update events: the Monitor is replayed from the
// job's offline usage trace, the Decider compares the upcoming window's
// maximum usage with the current allocation, the Actuator resizes the
// allocation (remote-first shrink, local-first growth), and the Executor
// applies the new limits to the simulated node and refreshes the contention
// model.
package core

import (
	"errors"
	"fmt"
	"unicode"

	"dismem/internal/cluster"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
	"dismem/internal/topology"
)

// LenderPolicy selects how lenders are ordered when borrowing remote
// memory.
type LenderPolicy int

const (
	// MostFree borrows from the nodes with the most free memory first
	// (the paper's policy).
	MostFree LenderPolicy = iota
	// NearestFirst borrows from the topologically nearest nodes first;
	// requires Config.Topology.
	NearestFirst
)

func (l LenderPolicy) String() string {
	if l == NearestFirst {
		return "nearest-first"
	}
	return "most-free"
}

// ParseLenderPolicy maps a lender-order name to its policy; the empty name
// is MostFree.
func ParseLenderPolicy(name string) (LenderPolicy, error) {
	return parseName(name, "unknown lender policy %q (want most_free or nearest_first)", MostFree, NearestFirst)
}

// OOMMode selects how a job that outgrows the available pool is handled.
type OOMMode int

const (
	// FailRestart terminates the job and resubmits it from scratch.
	// This is the paper's default: system-level OOM is rare (<1 % of
	// jobs even in the most extreme scenario), so the simpler scheme
	// wins.
	FailRestart OOMMode = iota
	// CheckpointRestart resubmits the job with its progress retained up
	// to the kill point, modelling an application-assisted C/R library.
	CheckpointRestart
)

func (m OOMMode) String() string {
	if m == CheckpointRestart {
		return "checkpoint/restart"
	}
	return "fail/restart"
}

// ParseOOM maps an OOM-mode name to its mode; the empty name is FailRestart.
func ParseOOM(name string) (OOMMode, error) {
	return parseName(name, "unknown mode %q (want fail_restart or checkpoint_restart)", FailRestart, CheckpointRestart)
}

// BackfillMode selects the scheduler's backfill algorithm.
type BackfillMode int

const (
	// EASYBackfill reserves only for the queue head; later jobs may jump
	// it if they finish before its shadow time (the paper's setting).
	EASYBackfill BackfillMode = iota
	// ConservativeBackfill gives every examined queued job a reservation,
	// so no backfilled job can delay any earlier job — stronger fairness,
	// less packing.
	ConservativeBackfill
	// NoBackfill runs strict FIFO.
	NoBackfill
)

func (b BackfillMode) String() string {
	switch b {
	case ConservativeBackfill:
		return "conservative"
	case NoBackfill:
		return "none"
	}
	return "easy"
}

// ParseBackfill maps a backfill name to its mode; the empty name is EASY,
// the simulator's default.
func ParseBackfill(name string) (BackfillMode, error) {
	return parseName(name, "unknown mode %q (want easy, conservative, or none)",
		EASYBackfill, ConservativeBackfill, NoBackfill)
}

// PressureMode selects how remote-memory contention pressure is scoped.
type PressureMode int

const (
	// PressureGlobal is the paper's model: one shared traffic level over
	// the whole fabric, so every allocation change moves the slowdown of
	// every running job.
	PressureGlobal PressureMode = iota
	// PressureDomains partitions the nodes into pressure domains (one per
	// ledger shard, sized from the torus Z-planes when a topology is
	// set). Each domain carries its own traffic sum and ρ; refresh is
	// O(Δ) within the touched domains only.
	PressureDomains
)

func (m PressureMode) String() string {
	if m == PressureDomains {
		return "domains"
	}
	return "global"
}

// ParsePressure maps a pressure-mode name to its mode; the empty name is
// PressureGlobal.
func ParsePressure(name string) (PressureMode, error) {
	return parseName(name, "unknown mode %q (want global or domains)", PressureGlobal, PressureDomains)
}

// parseName returns the value among vals, the first of them the zero value,
// whose String spells name; the empty name is the zero value, and any other
// name is reported with unknown. Case is ignored and '/', '-' and '_' are
// one separator, so every mode accepts both what it prints
// ("checkpoint/restart") and the underscore form configuration files use
// ("checkpoint_restart").
func parseName[T fmt.Stringer](name, unknown string, vals ...T) (T, error) {
	for _, v := range vals {
		if name == "" || spells(name, v.String()) {
			return v, nil
		}
	}
	return vals[0], fmt.Errorf(unknown, name)
}

// spells reports whether name lower-cases to want, an ASCII name, once every
// separator in either is folded to '/'.
func spells(name, want string) bool {
	i := 0
	for _, r := range name {
		if i == len(want) || foldSep(unicode.ToLower(r)) != foldSep(rune(want[i])) {
			return false
		}
		i++
	}
	return i == len(want)
}

func foldSep(r rune) rune {
	if r == '-' || r == '_' {
		return '/'
	}
	return r
}

// Config parameterises one simulation scenario. Defaults (applied by
// Normalize) follow the paper's Table 4.
type Config struct {
	Cluster cluster.Config
	Policy  policy.Kind

	SchedInterval float64 // main scheduling + backfill period (default 30 s)
	QueueDepth    int     // queue/backfill window examined per cycle (default 100)

	UpdateInterval float64 // mean memory-usage update period (default 300 s)
	UpdateJitter   float64 // relative jitter on the per-job update period (default 0.2)

	OOM              OOMMode
	MaxRestarts      int // OOM restarts before the job is abandoned (default 50)
	PriorityBoost    int // restarts before the job's priority is raised (default 3)
	EnforceTimeLimit bool
	// CheckpointInterval applies to CheckpointRestart: progress is
	// retained only at checkpoint boundaries, so a killed job loses the
	// work since its last checkpoint. Zero models ideal continuous
	// checkpointing.
	CheckpointInterval float64
	// Backfill selects the backfill algorithm (default EASYBackfill);
	// NoBackfill leaves strict FIFO, the scheduler ablation.
	Backfill BackfillMode
	// Observer, when non-nil, receives lifecycle events.
	Observer Observer
	// Telemetry, when non-nil, receives the typed event stream and (when its
	// sampling interval is set) periodic pool samples. A nil recorder is the
	// disabled fast path: every emission is a single pointer compare.
	// Telemetry never perturbs the simulation — results are identical with
	// it on or off. The caller owns the recorder and closes it after Run.
	Telemetry *telemetry.Recorder

	PerNodeRemoteBW float64 // remote-memory fabric bandwidth per node, GB/s (default 10)

	// Topology, when non-nil, enables the torus interconnect model.
	// Cluster node IDs map onto torus endpoints; the torus must have at
	// least as many endpoints as the cluster has nodes.
	Topology *topology.Torus
	// LenderPolicy selects the borrowing order: MostFree (the paper's
	// policy, default) or NearestFirst (topology-aware ablation;
	// requires Topology).
	LenderPolicy LenderPolicy
	// HopPenalty adds to the contention penalty for remote memory more
	// than one hop away: a lease at h hops is weighted
	// 1 + HopPenalty·(h−1). Zero (default) makes distance free, as in
	// the paper's model. Requires Topology when non-zero.
	HopPenalty float64

	Seed            int64
	Horizon         float64 // stop the clock after this time; 0 = run to completion
	MaxEvents       uint64  // runaway backstop: abort after this many events (0 = unlimited)
	CheckInvariants bool    // verify the ledger after every event (slow; tests only)

	// Pressure selects the contention scope: PressureGlobal (the paper's
	// model, default, bit-identical to previous releases) or
	// PressureDomains (per-rack pressure partitions). Each mode is
	// individually deterministic; they produce different — both valid —
	// trajectories.
	Pressure PressureMode
	// Domains sets the pressure-domain count for PressureDomains. Zero
	// resolves to the torus Z extent when a topology is set, else 16;
	// always clamped to the node count. Domains are identified with
	// ledger shards, so Normalize forces Cluster.Shards to the resolved
	// count in domains mode.
	Domains int

	// Interrupt, when non-nil, is polled every interruptStride events. A
	// non-nil return aborts the run, and Run surfaces the returned error
	// wrapped — the service daemon threads a request context's
	// cancellation through it so a disconnecting client frees the
	// simulation's slot mid-run. An Interrupt that returns nil throughout
	// never perturbs the simulation: results stay a pure function of
	// (Config, jobs, Seed).
	Interrupt func() error
}

// Normalize fills unset fields with the paper's defaults and validates the
// configuration.
func (c *Config) Normalize() error {
	if c.Cluster.Nodes <= 0 {
		return errors.New("core: cluster has no nodes")
	}
	if c.Cluster.Cores <= 0 {
		c.Cluster.Cores = 32
	}
	if c.Cluster.NormalMB <= 0 {
		return errors.New("core: node capacity not set")
	}
	if c.Cluster.LargeFrac < 0 || c.Cluster.LargeFrac > 1 {
		return fmt.Errorf("core: large-node fraction %g out of [0,1]", c.Cluster.LargeFrac)
	}
	if c.SchedInterval <= 0 {
		c.SchedInterval = 30
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 100
	}
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 300
	}
	if c.UpdateJitter < 0 || c.UpdateJitter >= 1 {
		c.UpdateJitter = 0.2
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 50
	}
	if c.PriorityBoost <= 0 {
		c.PriorityBoost = 3
	}
	if c.PerNodeRemoteBW <= 0 {
		c.PerNodeRemoteBW = 10
	}
	if c.Horizon < 0 {
		return errors.New("core: negative horizon")
	}
	if c.CheckpointInterval < 0 {
		return errors.New("core: negative checkpoint interval")
	}
	if c.LenderPolicy == NearestFirst && c.Topology == nil {
		return errors.New("core: nearest-first lending requires a topology")
	}
	if c.HopPenalty != 0 {
		if c.HopPenalty < 0 {
			return errors.New("core: negative hop penalty")
		}
		if c.Topology == nil {
			return errors.New("core: hop penalty requires a topology")
		}
	}
	if c.Topology != nil && c.Topology.Size() < c.Cluster.Nodes {
		return fmt.Errorf("core: topology has %d endpoints for %d nodes",
			c.Topology.Size(), c.Cluster.Nodes)
	}
	if c.Cluster.Shards < 0 {
		return errors.New("core: negative shard count")
	}
	if c.Domains < 0 {
		return errors.New("core: negative domain count")
	}
	switch c.Pressure {
	case PressureGlobal:
		if c.Domains != 0 {
			return errors.New("core: Domains set without Pressure: domains")
		}
	case PressureDomains:
		if c.LenderPolicy == NearestFirst {
			return errors.New("core: nearest-first lending is incompatible with pressure domains")
		}
		if c.Domains == 0 {
			c.Domains = 16
			if c.Topology != nil {
				c.Domains = c.Topology.Z
			}
		}
		if c.Domains > c.Cluster.Nodes {
			c.Domains = c.Cluster.Nodes
		}
		// Domains are identified with ledger shards: one shard per domain
		// keeps every per-domain resource summary O(1).
		c.Cluster.Shards = c.Domains
	default:
		return fmt.Errorf("core: unknown pressure mode %d", int(c.Pressure))
	}
	return c.Cluster.Validate()
}

// lenders is the lender order placement and growth borrow in: domain-first
// under pressure domains (Normalize rules out nearest-first there),
// nearest-first on the torus when configured, else most-free.
func (c *Config) lenders() policy.Order {
	switch {
	case c.Pressure == PressureDomains:
		return policy.DomainFirst()
	case c.LenderPolicy == NearestFirst:
		return policy.NearestFirst(*c.Topology)
	}
	return policy.Order{}
}
