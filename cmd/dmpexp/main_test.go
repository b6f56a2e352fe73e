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
