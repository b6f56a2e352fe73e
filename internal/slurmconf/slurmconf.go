// Package slurmconf parses Slurm-style configuration files (slurm.conf
// syntax) into simulator configurations, mirroring how the paper's
// simulator consumes a slurm.conf (Fig. 1b). Supported subset:
//
//	# comments and blank lines
//	Key=Value                            scheduler options
//	SchedulerParameters=k=v,k=v          comma-separated sub-options
//	NodeName=node[0-511] CPUs=32 RealMemory=65536
//
// plus the Disagg* extension keys introduced by this reproduction:
// DisaggPolicy, DisaggUpdateInterval, DisaggOOM, DisaggLenderPolicy,
// DisaggHopPenalty.
package slurmconf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/policy"
	"dismem/internal/topology"
)

// NodeGroup is one NodeName line: a homogeneous set of nodes.
type NodeGroup struct {
	Name         string
	Count        int
	CPUs         int
	RealMemoryMB int64
}

// File is a parsed configuration.
type File struct {
	// Options holds the flat Key=Value entries, keys lower-cased.
	// SchedulerParameters sub-options are flattened as
	// "schedulerparameters.<key>".
	Options map[string]string
	Nodes   []NodeGroup
}

// ErrSyntax reports a malformed configuration line.
var ErrSyntax = errors.New("slurmconf: syntax error")

var rangeRe = regexp.MustCompile(`^([^\[\]]*)\[(\d+)-(\d+)\]$`)

// Parse reads a configuration stream.
func Parse(r io.Reader) (*File, error) {
	f := &File{Options: map[string]string{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := f.parseLine(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) parseLine(line string) error {
	key, rest, ok := strings.Cut(line, "=")
	if !ok {
		return fmt.Errorf("%w: missing '=' in %q", ErrSyntax, line)
	}
	key = strings.TrimSpace(key)
	if strings.EqualFold(key, "NodeName") {
		return f.parseNodeLine(rest)
	}
	value := strings.TrimSpace(rest)
	lk := strings.ToLower(key)
	if lk == "schedulerparameters" {
		for _, kv := range strings.Split(value, ",") {
			sk, sv, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("%w: scheduler parameter %q", ErrSyntax, kv)
			}
			f.Options["schedulerparameters."+strings.ToLower(strings.TrimSpace(sk))] = strings.TrimSpace(sv)
		}
		return nil
	}
	f.Options[lk] = value
	return nil
}

// parseNodeLine handles "NodeName=<spec> Attr=V Attr=V …".
func (f *File) parseNodeLine(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return fmt.Errorf("%w: empty NodeName", ErrSyntax)
	}
	g := NodeGroup{CPUs: 1}
	spec := fields[0]
	if m := rangeRe.FindStringSubmatch(spec); m != nil {
		lo, err1 := strconv.Atoi(m[2])
		hi, err2 := strconv.Atoi(m[3])
		if err1 != nil || err2 != nil || hi < lo {
			return fmt.Errorf("%w: node range %q", ErrSyntax, spec)
		}
		g.Name = m[1]
		g.Count = hi - lo + 1
	} else {
		g.Name = spec
		g.Count = 1
	}
	for _, attr := range fields[1:] {
		k, v, ok := strings.Cut(attr, "=")
		if !ok {
			return fmt.Errorf("%w: node attribute %q", ErrSyntax, attr)
		}
		switch strings.ToLower(k) {
		case "cpus":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return fmt.Errorf("%w: CPUs=%q", ErrSyntax, v)
			}
			g.CPUs = n
		case "realmemory": // MB, as in Slurm
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return fmt.Errorf("%w: RealMemory=%q", ErrSyntax, v)
			}
			g.RealMemoryMB = n
		default:
			// Unknown node attributes are ignored, like Slurm does
			// for plugins it does not load.
		}
	}
	if g.RealMemoryMB == 0 {
		return fmt.Errorf("%w: NodeName %q missing RealMemory", ErrSyntax, g.Name)
	}
	f.Nodes = append(f.Nodes, g)
	return nil
}

// TotalNodes returns the node count across all groups.
func (f *File) TotalNodes() int {
	n := 0
	for _, g := range f.Nodes {
		n += g.Count
	}
	return n
}

// CoreConfig converts the parsed file into a simulator configuration.
// Node groups must form the paper's two-tier shape: one capacity, or two
// capacities where the larger is exactly double the smaller.
func (f *File) CoreConfig() (core.Config, error) {
	var cfg core.Config
	if len(f.Nodes) == 0 {
		return cfg, errors.New("slurmconf: no NodeName entries")
	}

	caps := map[int64]int{}
	cpus := 0
	for _, g := range f.Nodes {
		caps[g.RealMemoryMB] += g.Count
		if cpus == 0 {
			cpus = g.CPUs
		} else if g.CPUs != cpus {
			return cfg, errors.New("slurmconf: heterogeneous CPU counts are not supported")
		}
	}
	switch len(caps) {
	case 1:
		for mem, count := range caps {
			cfg.Cluster = cluster.Config{Nodes: count, Cores: cpus, NormalMB: mem}
		}
	case 2:
		var lo, hi int64
		for mem := range caps {
			if lo == 0 || mem < lo {
				lo = mem
			}
			if mem > hi {
				hi = mem
			}
		}
		if hi != 2*lo {
			return cfg, fmt.Errorf("slurmconf: large nodes must have double memory (%d vs %d)", hi, lo)
		}
		total := caps[lo] + caps[hi]
		cfg.Cluster = cluster.Config{
			Nodes:     total,
			Cores:     cpus,
			NormalMB:  lo,
			LargeFrac: float64(caps[hi]) / float64(total),
		}
	default:
		return cfg, errors.New("slurmconf: more than two node capacities")
	}

	if v, ok := f.Options["schedulerparameters.bf_interval"]; ok {
		sec, ok := parseFinite(v)
		if !ok || sec <= 0 {
			return cfg, fmt.Errorf("slurmconf: bf_interval=%q", v)
		}
		cfg.SchedInterval = sec
	}
	if v, ok := f.Options["schedulerparameters.default_queue_depth"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return cfg, fmt.Errorf("slurmconf: default_queue_depth=%q", v)
		}
		cfg.QueueDepth = n
	}
	var err error
	bf := f.Options["schedulerparameters.bf_algorithm"]
	if cfg.Backfill, err = core.ParseBackfill(bf); err != nil {
		return cfg, fmt.Errorf("slurmconf: bf_algorithm=%q", bf)
	}

	// An absent DisaggPolicy is baseline: a plain slurm.conf describes a
	// cluster without disaggregated memory.
	if v := f.Options["disaggpolicy"]; v != "" {
		if cfg.Policy, err = policy.ParseKind(v); err != nil {
			return cfg, fmt.Errorf("slurmconf: DisaggPolicy=%q", v)
		}
	}
	if v, ok := f.Options["disaggupdateinterval"]; ok {
		sec, ok := parseFinite(v)
		if !ok || sec <= 0 {
			return cfg, fmt.Errorf("slurmconf: DisaggUpdateInterval=%q", v)
		}
		cfg.UpdateInterval = sec
	}
	oom := f.Options["disaggoom"]
	if cfg.OOM, err = core.ParseOOM(oom); err != nil {
		return cfg, fmt.Errorf("slurmconf: DisaggOOM=%q", oom)
	}
	lender := f.Options["disagglenderpolicy"]
	if cfg.LenderPolicy, err = core.ParseLenderPolicy(lender); err != nil {
		return cfg, fmt.Errorf("slurmconf: DisaggLenderPolicy=%q", lender)
	}
	if cfg.LenderPolicy == core.NearestFirst {
		t := topology.Design(cfg.Cluster.Nodes)
		cfg.Topology = &t
	}
	if v, ok := f.Options["disagghoppenalty"]; ok {
		p, ok := parseFinite(v)
		if !ok || p < 0 {
			return cfg, fmt.Errorf("slurmconf: DisaggHopPenalty=%q", v)
		}
		cfg.HopPenalty = p
		if cfg.Topology == nil {
			t := topology.Design(cfg.Cluster.Nodes)
			cfg.Topology = &t
		}
	}
	return cfg, nil
}

// parseFinite parses a finite number. NaN and infinities are rejected:
// they pass every range check and then stop the simulation at its first
// event that uses them.
func parseFinite(v string) (float64, bool) {
	x, err := strconv.ParseFloat(v, 64)
	return x, err == nil && !math.IsNaN(x) && !math.IsInf(x, 0)
}
