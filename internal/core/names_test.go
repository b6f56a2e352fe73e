package core

import (
	"fmt"
	"strings"
	"testing"
)

// nameCase is one mode enum's parser with its values, the underscore
// spellings configuration files document, and its rejection text.
type nameCase struct {
	enum       string
	values     []fmt.Stringer
	parse      func(string) (fmt.Stringer, error)
	documented map[string]fmt.Stringer
	reject     string
}

func nameCases() []nameCase {
	return []nameCase{
		{
			enum:   "backfill",
			values: []fmt.Stringer{EASYBackfill, ConservativeBackfill, NoBackfill},
			parse:  func(s string) (fmt.Stringer, error) { return ParseBackfill(s) },
			reject: `unknown mode "bogus" (want easy, conservative, or none)`,
		},
		{
			enum:   "oom",
			values: []fmt.Stringer{FailRestart, CheckpointRestart},
			parse:  func(s string) (fmt.Stringer, error) { return ParseOOM(s) },
			documented: map[string]fmt.Stringer{
				"fail_restart": FailRestart, "checkpoint_restart": CheckpointRestart,
				"Checkpoint_Restart": CheckpointRestart, "CHECKPOINT-RESTART": CheckpointRestart,
			},
			reject: `unknown mode "bogus" (want fail_restart or checkpoint_restart)`,
		},
		{
			enum:   "pressure",
			values: []fmt.Stringer{PressureGlobal, PressureDomains},
			parse:  func(s string) (fmt.Stringer, error) { return ParsePressure(s) },
			reject: `unknown mode "bogus" (want global or domains)`,
		},
		{
			enum:   "lender",
			values: []fmt.Stringer{MostFree, NearestFirst},
			parse:  func(s string) (fmt.Stringer, error) { return ParseLenderPolicy(s) },
			documented: map[string]fmt.Stringer{
				"most_free": MostFree, "nearest_first": NearestFirst, "Nearest_First": NearestFirst,
			},
			reject: `unknown lender policy "bogus" (want most_free or nearest_first)`,
		},
	}
}

// TestParseNames: for every value v of every mode enum, Parse(v.String())
// is v, in any case; the documented underscore spellings map to the same
// values; the empty name is the enum's zero value; unknown names, names
// with extra characters and names with a separator where String has none
// are rejected.
func TestParseNames(t *testing.T) {
	for _, c := range nameCases() {
		for _, v := range c.values {
			for _, name := range []string{v.String(), strings.ToUpper(v.String()),
				strings.ToUpper(v.String()[:1]) + v.String()[1:]} {
				got, err := c.parse(name)
				if err != nil || got != v {
					t.Errorf("%s: Parse(%q) = %v, %v; want %v", c.enum, name, got, err, v)
				}
			}
			for _, bad := range []string{v.String() + "x", " " + v.String(), v.String()[1:], v.String() + "_"} {
				if got, err := c.parse(bad); err == nil {
					t.Errorf("%s: Parse(%q) = %v, want an error", c.enum, bad, got)
				}
			}
		}
		for name, v := range c.documented {
			if got, err := c.parse(name); err != nil || got != v {
				t.Errorf("%s: Parse(%q) = %v, %v; want %v", c.enum, name, got, err, v)
			}
		}
		if got, err := c.parse(""); err != nil || got != c.values[0] {
			t.Errorf("%s: Parse(\"\") = %v, %v; want the zero value %v", c.enum, got, err, c.values[0])
		}
		_, err := c.parse("bogus")
		if err == nil || err.Error() != c.reject {
			t.Errorf("%s: Parse(\"bogus\") error = %v, want %q", c.enum, err, c.reject)
		}
	}
	// A separator never stands for a missing one, nor for a letter.
	for _, bad := range []string{"checkpointrestart", "nearestfirst", "easy_", "glob-al"} {
		for _, c := range nameCases() {
			if got, err := c.parse(bad); err == nil {
				t.Errorf("%s: Parse(%q) = %v, want an error", c.enum, bad, got)
			}
		}
	}
}

// TestParseNameAllocationFree: the daemon parses every request's mode
// names, so a parse allocates nothing beyond its error.
func TestParseNameAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseOOM("Checkpoint_Restart"); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseBackfill("conservative"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parse allocates %v times per call", allocs)
	}
}
