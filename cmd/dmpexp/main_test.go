package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dismem/internal/experiments"
)

// writeSpec writes a scenario document into dir and returns its path.
func writeSpec(t *testing.T, dir, doc string) string {
	t.Helper()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A spec name heads every telemetry file name, so one that names a
// directory is refused before the sweep, with the field at fault named,
// and the telemetry directory is not even made.
func TestScenarioTelemetryRejectsPathName(t *testing.T) {
	for _, name := range []string{"a/b", "../escape"} {
		dir := t.TempDir()
		path := writeSpec(t, dir, `{"name": "`+name+`", "mem_pcts": [100], "policies": ["static"]}`)
		telDir := filepath.Join(dir, "tel")
		_, _, err := runScenarioFile(path, experiments.Bench(), telDir, 0)
		if err == nil || !strings.Contains(err.Error(), `field "name"`) {
			t.Fatalf("name %q: err = %v, want a rejection naming the field", name, err)
		}
		if _, err := os.Stat(telDir); !os.IsNotExist(err) {
			t.Fatalf("name %q: telemetry directory exists after the rejection (%v)", name, err)
		}
	}
}

// Each result row's cell log lands in <name>_mem<pct>_<policy>.jsonl, and a
// cell that two rows name is one file.
func TestScenarioTelemetryFilePerRow(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, `{"name": "rows", "mem_pcts": [100, 62, 100], "policies": ["static", "dynamic"]}`)
	telDir := filepath.Join(dir, "tel")
	if _, _, err := runScenarioFile(path, experiments.Bench(), telDir, 600); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(telDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	want := []string{"rows_mem062_dynamic.jsonl", "rows_mem062_static.jsonl",
		"rows_mem100_dynamic.jsonl", "rows_mem100_static.jsonl"}
	if !slices.Equal(got, want) {
		t.Fatalf("files %v, want %v", got, want)
	}
	for _, name := range got {
		b, err := os.ReadFile(filepath.Join(telDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(`{"t":`)) || !bytes.Contains(b, []byte(`"ev":"job_submit"`)) ||
			!bytes.Contains(b, []byte(`"ev":"pool_sample"`)) {
			t.Fatalf("%s: %d bytes without the cell's events and samples", name, len(b))
		}
	}
}

// A failed scenario is reported once, as "dmpexp: scenario: <path>: ...",
// whichever step failed: the spec's own validation, opening the file, or
// making the telemetry directory. realMain defines its flags on the
// process's flag set, so this is the one test that calls it.
func TestScenarioErrorSaysScenarioOnce(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, `{"name": "bad", "mem_pcts": [25], "policies": ["static"]}`)
	if _, _, err := runScenarioFile(filepath.Join(dir, "missing.json"), experiments.Bench(), "", 0); err == nil ||
		!strings.HasPrefix(err.Error(), "scenario: "+filepath.Join(dir, "missing.json")+": ") {
		t.Fatalf("missing spec: err = %v, want it to begin with scenario: and the path", err)
	}
	good := writeSpec(t, t.TempDir(), `{"name": "ok", "mem_pcts": [100], "policies": ["static"]}`)
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runScenarioFile(good, experiments.Bench(), filepath.Join(blocker, "tel"), 0); err == nil ||
		!strings.HasPrefix(err.Error(), "scenario: "+good+": ") {
		t.Fatalf("telemetry directory under a file: err = %v, want it to begin with scenario: and the path", err)
	}

	stderr, err := os.CreateTemp(dir, "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldArgs, oldStderr := os.Args, os.Stderr
	defer func() { os.Args, os.Stderr = oldArgs, oldStderr }()
	os.Args, os.Stderr = []string{"dmpexp", "-preset", "quick", "-scenario", spec}, stderr
	code := realMain()
	os.Args, os.Stderr = oldArgs, oldStderr
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	msg := string(out)
	if code != 1 || !strings.HasPrefix(msg, "dmpexp: scenario: "+spec+`: field "mem_pcts": `) ||
		strings.Count(msg, "scenario:") != 1 {
		t.Fatalf("exit %d, stderr %q; want 1 and one \"dmpexp: scenario: <path>: field ...\" line", code, msg)
	}
}
