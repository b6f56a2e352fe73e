package slurmconf

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/policy"
	"dismem/internal/topology"
)

const sample = `# simulated system, paper Table 4
SchedulerType=sched/backfill
SchedulerParameters=bf_interval=30,default_queue_depth=100,bf_max_job_test=100
NodeName=node[0-511] CPUs=32 RealMemory=65536
NodeName=node[512-1023] CPUs=32 RealMemory=131072

DisaggPolicy=dynamic
DisaggUpdateInterval=300
DisaggOOM=fail_restart
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNodes() != 1024 {
		t.Fatalf("nodes = %d, want 1024", f.TotalNodes())
	}
	if len(f.Nodes) != 2 {
		t.Fatalf("groups = %d, want 2", len(f.Nodes))
	}
	if f.Nodes[0].Count != 512 || f.Nodes[0].RealMemoryMB != 65536 || f.Nodes[0].CPUs != 32 {
		t.Fatalf("group 0 = %+v", f.Nodes[0])
	}
	if got := f.Options["schedulerparameters.bf_interval"]; got != "30" {
		t.Fatalf("bf_interval = %q", got)
	}
	if got := f.Options["schedulertype"]; got != "sched/backfill" {
		t.Fatalf("schedulertype = %q", got)
	}
}

func TestCoreConfigFromSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.Nodes != 1024 || cfg.Cluster.NormalMB != 65536 {
		t.Fatalf("cluster = %+v", cfg.Cluster)
	}
	if cfg.Cluster.LargeFrac != 0.5 {
		t.Fatalf("large frac = %g, want 0.5", cfg.Cluster.LargeFrac)
	}
	if cfg.Policy != policy.Dynamic {
		t.Fatalf("policy = %v", cfg.Policy)
	}
	if cfg.SchedInterval != 30 || cfg.QueueDepth != 100 {
		t.Fatalf("scheduler: interval=%g depth=%d", cfg.SchedInterval, cfg.QueueDepth)
	}
	if cfg.UpdateInterval != 300 || cfg.OOM != core.FailRestart {
		t.Fatalf("dynamic params: %g %v", cfg.UpdateInterval, cfg.OOM)
	}
	// The produced config must be accepted by the simulator.
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeName(t *testing.T) {
	f, err := Parse(strings.NewReader("NodeName=login CPUs=8 RealMemory=32768\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNodes() != 1 || f.Nodes[0].Name != "login" {
		t.Fatalf("nodes = %+v", f.Nodes)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"NoEqualsSign\n",
		"NodeName=node[5-2] RealMemory=100\n",
		"NodeName=node1 CPUs=abc RealMemory=100\n",
		"NodeName=node1 CPUs=4\n", // missing RealMemory
		"SchedulerParameters=bf_interval\n",
		"NodeName=node1 BadAttr\n",
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); !errors.Is(err, ErrSyntax) {
			t.Errorf("input %q: err = %v, want ErrSyntax", in, err)
		}
	}
}

// TestCoreConfigRejections pins each rejection's text byte for byte: a
// bad value is reported under its documented key, whatever parsed it.
func TestCoreConfigRejections(t *testing.T) {
	cases := []struct {
		name, conf, want string
	}{
		{"no nodes", "DisaggPolicy=static\n", "slurmconf: no NodeName entries"},
		{"non-double large", "NodeName=a[0-1] CPUs=4 RealMemory=1000\nNodeName=b[0-1] CPUs=4 RealMemory=1500\n",
			"slurmconf: large nodes must have double memory (1500 vs 1000)"},
		{"three capacities", "NodeName=a CPUs=4 RealMemory=1000\nNodeName=b CPUs=4 RealMemory=2000\nNodeName=c CPUs=4 RealMemory=4000\n",
			"slurmconf: more than two node capacities"},
		{"mixed cpus", "NodeName=a CPUs=4 RealMemory=1000\nNodeName=b CPUs=8 RealMemory=2000\n",
			"slurmconf: heterogeneous CPU counts are not supported"},
		{"bad policy", "NodeName=a CPUs=4 RealMemory=1000\nDisaggPolicy=magic\n", `slurmconf: DisaggPolicy="magic"`},
		{"bad oom", "NodeName=a CPUs=4 RealMemory=1000\nDisaggOOM=retry\n", `slurmconf: DisaggOOM="retry"`},
		{"bad interval", "NodeName=a CPUs=4 RealMemory=1000\nDisaggUpdateInterval=-5\n", `slurmconf: DisaggUpdateInterval="-5"`},
		{"bad lender", "NodeName=a CPUs=4 RealMemory=1000\nDisaggLenderPolicy=random\n", `slurmconf: DisaggLenderPolicy="random"`},
		{"bad hop penalty", "NodeName=a CPUs=4 RealMemory=1000\nDisaggHopPenalty=-1\n", `slurmconf: DisaggHopPenalty="-1"`},
		{"bad bf_algorithm", "NodeName=a CPUs=4 RealMemory=1000\nSchedulerParameters=bf_algorithm=magic\n", `slurmconf: bf_algorithm="magic"`},
		{"bad bf_interval", "NodeName=a CPUs=4 RealMemory=1000\nSchedulerParameters=bf_interval=0\n", `slurmconf: bf_interval="0"`},
		{"NaN bf_interval", "NodeName=a CPUs=4 RealMemory=1000\nSchedulerParameters=bf_interval=NaN\n", `slurmconf: bf_interval="NaN"`},
		{"infinite interval", "NodeName=a CPUs=4 RealMemory=1000\nDisaggUpdateInterval=+Inf\n", `slurmconf: DisaggUpdateInterval="+Inf"`},
		{"NaN hop penalty", "NodeName=a CPUs=4 RealMemory=1000\nDisaggHopPenalty=nan\n", `slurmconf: DisaggHopPenalty="nan"`},
		{"bad queue depth", "NodeName=a CPUs=4 RealMemory=1000\nSchedulerParameters=default_queue_depth=x\n", `slurmconf: default_queue_depth="x"`},
	}
	for _, tc := range cases {
		f, err := Parse(strings.NewReader(tc.conf))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		_, err = f.CoreConfig()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

func TestTopologyKeys(t *testing.T) {
	conf := "NodeName=n[0-63] CPUs=32 RealMemory=65536\nDisaggLenderPolicy=nearest_first\nDisaggHopPenalty=0.5\n"
	f, err := Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LenderPolicy != core.NearestFirst {
		t.Fatalf("lender policy = %v", cfg.LenderPolicy)
	}
	if cfg.Topology == nil || cfg.Topology.Size() < 64 {
		t.Fatalf("topology = %v", cfg.Topology)
	}
	if cfg.HopPenalty != 0.5 {
		t.Fatalf("hop penalty = %g", cfg.HopPenalty)
	}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
}

func TestHopPenaltyAloneCreatesTopology(t *testing.T) {
	conf := "NodeName=n[0-15] CPUs=4 RealMemory=1000\nDisaggHopPenalty=0.3\n"
	f, err := Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil {
		t.Fatal("hop penalty without topology must auto-design one")
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	conf := "\n# full comment\n   \nNodeName=n CPUs=1 RealMemory=100\n"
	f, err := Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNodes() != 1 {
		t.Fatalf("nodes = %d", f.TotalNodes())
	}
}

func TestBackfillAlgorithmKey(t *testing.T) {
	for in, want := range map[string]core.BackfillMode{
		"easy":         core.EASYBackfill,
		"conservative": core.ConservativeBackfill,
		"none":         core.NoBackfill,
	} {
		conf := "NodeName=n CPUs=1 RealMemory=100\nSchedulerParameters=bf_algorithm=" + in + "\n"
		f, err := Parse(strings.NewReader(conf))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := f.CoreConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Backfill != want {
			t.Fatalf("%s: backfill = %v, want %v", in, cfg.Backfill, want)
		}
	}
	f, err := Parse(strings.NewReader("NodeName=n CPUs=1 RealMemory=100\nSchedulerParameters=bf_algorithm=magic\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CoreConfig(); err == nil {
		t.Fatal("bad bf_algorithm accepted")
	}
}

// TestWriteConfigRoundTrip: for every policy × backfill × OOM × lender
// combination, CoreConfig∘Parse∘WriteConfig gives back every field the
// file models, and writing the result again reproduces the file byte for
// byte. Only the dynamic policy writes (and so keeps) its OOM mode and
// update interval.
func TestWriteConfigRoundTrip(t *testing.T) {
	for _, pol := range []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic} {
		for _, bf := range []core.BackfillMode{core.EASYBackfill, core.ConservativeBackfill, core.NoBackfill} {
			for _, oom := range []core.OOMMode{core.FailRestart, core.CheckpointRestart} {
				for _, lender := range []core.LenderPolicy{core.MostFree, core.NearestFirst} {
					name := fmt.Sprintf("%s/%s/%s/%s", pol, bf, oom, lender)
					var cfg core.Config
					cfg.Cluster = cluster.Config{Nodes: 64, Cores: 32, NormalMB: 65536, LargeFrac: 0.25}
					cfg.Policy = pol
					cfg.SchedInterval = 60
					cfg.QueueDepth = 50
					cfg.UpdateInterval = 120
					cfg.Backfill = bf
					cfg.OOM = oom
					cfg.LenderPolicy = lender
					cfg.HopPenalty = 0.5
					torus := topology.Design(cfg.Cluster.Nodes)
					cfg.Topology = &torus

					var buf bytes.Buffer
					if err := WriteConfig(&buf, cfg); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					written := buf.String()
					f, err := Parse(&buf)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					back, err := f.CoreConfig()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := cfg
					if pol != policy.Dynamic {
						want.OOM, want.UpdateInterval = core.FailRestart, 0
					}
					if back.Cluster != want.Cluster {
						t.Fatalf("%s: cluster mismatch:\n%+v\n%+v", name, back.Cluster, want.Cluster)
					}
					if back.Policy != want.Policy || back.SchedInterval != want.SchedInterval ||
						back.QueueDepth != want.QueueDepth || back.UpdateInterval != want.UpdateInterval ||
						back.Backfill != want.Backfill || back.OOM != want.OOM ||
						back.LenderPolicy != want.LenderPolicy || back.HopPenalty != want.HopPenalty {
						t.Fatalf("%s: config mismatch:\n%+v\n%+v", name, back, want)
					}
					if back.Topology == nil {
						t.Fatalf("%s: hop penalty must re-create a topology", name)
					}
					buf.Reset()
					if err := WriteConfig(&buf, back); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if buf.String() != written {
						t.Fatalf("%s: rewrite differs:\n%s\nvs\n%s", name, buf.String(), written)
					}
				}
			}
		}
	}
}

// TestCoreConfigModeSpellings: every mode key accepts what the simulator
// prints as well as the documented underscore form, in any case.
func TestCoreConfigModeSpellings(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   func(core.Config) bool
	}{
		{"DisaggOOM=checkpoint/restart", func(c core.Config) bool { return c.OOM == core.CheckpointRestart }},
		{"DisaggOOM=checkpoint_restart", func(c core.Config) bool { return c.OOM == core.CheckpointRestart }},
		{"DisaggOOM=Fail/Restart", func(c core.Config) bool { return c.OOM == core.FailRestart }},
		{"DisaggLenderPolicy=nearest-first", func(c core.Config) bool { return c.LenderPolicy == core.NearestFirst }},
		{"DisaggLenderPolicy=NEAREST_FIRST", func(c core.Config) bool { return c.LenderPolicy == core.NearestFirst }},
		{"DisaggLenderPolicy=most-free", func(c core.Config) bool { return c.LenderPolicy == core.MostFree }},
		{"DisaggLenderPolicy=most_free", func(c core.Config) bool { return c.LenderPolicy == core.MostFree }},
		{"DisaggPolicy=Dynamic", func(c core.Config) bool { return c.Policy == policy.Dynamic }},
		{"DisaggPolicy=", func(c core.Config) bool { return c.Policy == policy.Baseline }},
		{"SchedulerParameters=bf_algorithm=CONSERVATIVE", func(c core.Config) bool { return c.Backfill == core.ConservativeBackfill }},
	} {
		f, err := Parse(strings.NewReader("NodeName=n[0-7] CPUs=4 RealMemory=1000\n" + tc.line + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		cfg, err := f.CoreConfig()
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		if !tc.ok(cfg) {
			t.Errorf("%s: parsed to %+v", tc.line, cfg)
		}
	}
}

func TestWriteConfigBaselineOmitsDynamicKeys(t *testing.T) {
	var cfg core.Config
	cfg.Cluster = cluster.Config{Nodes: 4, Cores: 8, NormalMB: 1000}
	cfg.Policy = policy.Baseline
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "DisaggUpdateInterval") || strings.Contains(out, "DisaggOOM") {
		t.Fatalf("baseline config carries dynamic keys:\n%s", out)
	}
	if !strings.Contains(out, "DisaggPolicy=baseline") {
		t.Fatalf("policy missing:\n%s", out)
	}
}
