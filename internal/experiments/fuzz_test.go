package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// scenarioSeeds are the documents FuzzLoadScenario starts from: the dmpd
// smoke scenario, the sample spec, the rejection table's inputs, and every
// mode name the spec accepts, both as the simulator prints it and in the
// documented underscore form.
func scenarioSeeds(f *testing.F) {
	smoke, err := os.ReadFile("../../cmd/dmpd/testdata/smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	f.Add([]byte(sampleSpec))
	for _, in := range []string{
		`{"policies": ["magic"]}`,
		`{"backfill": "optimistic"}`,
		`{"oom": "panic"}`,
		`{"mem_pcts": [99]}`,
		`{"trace": {"large_frac": 2}}`,
		`{"trace": {"chain_frac": -0.5}}`,
		`{"trace": {"overestimation": -1}}`,
		`{"trace": {"load": -0.5}}`,
		`{"trace": {"days": -2}}`,
		`{"trace": {"system_nodes": -64}}`,
		`{"update_interval_s": -3}`,
		`{"pressure": "vibes"}`,
		`{"domains": 4}`,
		`{"pressure": "domains", "domains": -1}`,
		`{"pressure": "domains", "domains": 8, "oom": "checkpoint_restart", "enforce_time_limit": true}`,
		`{"policies": ["baseline", "static", "dynamic"], "backfill": "easy", "oom": "fail/restart", "pressure": "global"}`,
		`{"policies": ["Dynamic"], "backfill": "conservative", "oom": "checkpoint/restart"}`,
		`{"backfill": "none", "oom": "fail_restart"}`,
		`{"oom": "checkpoint_restart", "pressure": "domains"}`,
		`{"unknown_field": 1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(in))
	}
}

// FuzzLoadScenario feeds LoadScenario arbitrary bytes, as the daemon does
// with a request body. It must never panic, and a spec it accepts must
// survive re-encoding: the JSON of an accepted spec loads again and hashes
// to the same ScenarioKey, so a client that echoes a spec back gets the
// cached result it names.
func FuzzLoadScenario(f *testing.F) {
	scenarioSeeds(f)
	p := Quick()
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := LoadScenario(bytes.NewReader(in))
		if err != nil {
			return
		}
		k1, err := p.ScenarioKey(s)
		if err != nil {
			t.Fatalf("accepted spec has no key: %v", err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		s2, err := LoadScenario(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		k2, err := p.ScenarioKey(s2)
		if err != nil {
			t.Fatalf("re-encoded spec has no key: %v", err)
		}
		if k1 != k2 {
			t.Fatalf("re-encoding moved the key: %s -> %s (%s)", k1, k2, enc)
		}
	})
}

// FuzzLoadBranchSpec is FuzzLoadScenario for branch requests: never panic,
// and an accepted request re-encodes to the same BranchKey.
func FuzzLoadBranchSpec(f *testing.F) {
	for _, in := range []string{
		`{"mem_pct": 75, "policy": "dynamic", "at_time_s": 100, "variants": [{"name": "a"}]}`,
		`{"mem_pct": 100, "policy": "static", "variants": [{"name": "repack", "repack": true}, {"name": "cons", "backfill": "conservative"}]}`,
		`{"mem_pct": 50, "policy": "dynamic", "variants": [{"name": "u", "policy": "baseline", "update_interval_s": 60}]}`,
		`{"mem_pct": 33, "policy": "dynamic", "variants": [{"name": "a"}]}`,
		`{"mem_pct": 75, "policy": "bogus", "variants": [{"name": "a"}]}`,
		`{"mem_pct": 75, "policy": "dynamic", "at_time_s": -1, "variants": [{"name": "a"}]}`,
		`{"mem_pct": 75, "policy": "dynamic", "variants": []}`,
		`{"mem_pct": 75, "policy": "dynamic", "variants": [{"name": "a"}, {"name": "a"}]}`,
		`{"mem_pct": 75, "policy": "dynamic", "variants": [{"name": ""}]}`,
		`{"mem_pct": 75, "policy": "dynamic", "variants": [{"name": "a", "backfill": "bogus"}]}`,
		`{"mem_pct": 75, "policy": "dynamic", "variants": [{"name": "a", "update_interval_s": -5}]}`,
		`{"unknown": 1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		b, err := LoadBranchSpec(bytes.NewReader(in))
		if err != nil {
			return
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted branch spec does not encode: %v", err)
		}
		b2, err := LoadBranchSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded branch spec %s rejected: %v", enc, err)
		}
		if k1, k2 := BranchKey("s", b), BranchKey("s", b2); k1 != k2 {
			t.Fatalf("re-encoding moved the key: %s -> %s (%s)", k1, k2, enc)
		}
	})
}
