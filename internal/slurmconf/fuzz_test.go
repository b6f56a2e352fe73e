package slurmconf

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse checks the configuration parser never panics, that any
// accepted configuration either converts to a valid simulator config or
// fails conversion with an error (never a panic), and that WriteConfig is
// a fixpoint on what it converts: writing the config, re-parsing the file
// and writing again gives the same bytes.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("NodeName=n CPUs=1 RealMemory=100\n")
	f.Add("NodeName=n[0-3] RealMemory=100\nDisaggPolicy=static\n")
	f.Add("SchedulerParameters=bf_interval=30,default_queue_depth=100\n")
	f.Add("Key=Value\n# comment\n")
	f.Add("NodeName=n[9-1] RealMemory=5\n")
	f.Add("=\n")
	// Every mode name each key accepts: what the simulator prints and the
	// documented underscore form.
	for _, line := range []string{
		"DisaggPolicy=baseline", "DisaggPolicy=static", "DisaggPolicy=dynamic",
		"SchedulerParameters=bf_algorithm=easy", "SchedulerParameters=bf_algorithm=conservative",
		"SchedulerParameters=bf_algorithm=none",
		"DisaggPolicy=dynamic\nDisaggOOM=fail/restart", "DisaggPolicy=dynamic\nDisaggOOM=fail_restart",
		"DisaggPolicy=dynamic\nDisaggOOM=checkpoint/restart", "DisaggPolicy=dynamic\nDisaggOOM=checkpoint_restart",
		"DisaggLenderPolicy=most-free", "DisaggLenderPolicy=most_free",
		"DisaggLenderPolicy=nearest-first", "DisaggLenderPolicy=nearest_first\nDisaggHopPenalty=0.5",
	} {
		f.Add("NodeName=n[0-15] CPUs=8 RealMemory=4096\nNodeName=m[0-3] CPUs=8 RealMemory=8192\n" + line + "\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		parsed, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		cfg, err := parsed.CoreConfig()
		if err != nil {
			return
		}
		// Whatever CoreConfig accepts must normalise cleanly.
		if err := cfg.Normalize(); err != nil {
			t.Fatalf("converted config fails Normalize: %v\ninput: %q", err, input)
		}
		if cfg.Cluster.Nodes != parsed.TotalNodes() {
			t.Fatalf("node count mismatch: %d vs %d", cfg.Cluster.Nodes, parsed.TotalNodes())
		}

		var first bytes.Buffer
		if err := WriteConfig(&first, cfg); err != nil {
			t.Fatalf("WriteConfig: %v\ninput: %q", err, input)
		}
		reparsed, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written config does not parse: %v\n%s", err, first.String())
		}
		back, err := reparsed.CoreConfig()
		if err != nil {
			t.Fatalf("written config does not convert: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteConfig(&second, back); err != nil {
			t.Fatalf("second WriteConfig: %v\n%s", err, first.String())
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteConfig is not a fixpoint:\n%s\nvs\n%s\ninput: %q", first.String(), second.String(), input)
		}
	})
}
