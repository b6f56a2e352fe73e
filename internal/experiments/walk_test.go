package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"dismem/internal/traces/grizzly"
)

// countGenerations counts the Grizzly datasets generated until the test
// ends.
func countGenerations(t *testing.T) *atomic.Int32 {
	var n atomic.Int32
	gen := generateGrizzly
	generateGrizzly = func(p grizzly.Params, rng *rand.Rand) *grizzly.Dataset {
		n.Add(1)
		return gen(p, rng)
	}
	t.Cleanup(func() { generateGrizzly = gen })
	return &n
}

// countPanels counts the throughput panels built until the test ends.
func countPanels(t *testing.T) *atomic.Int32 {
	var n atomic.Int32
	build := buildPanel
	buildPanel = func(p Preset, pn panel, weeks []grizzly.Week) (*ThroughputGrid, error) {
		n.Add(1)
		return build(p, pn, weeks)
	}
	t.Cleanup(func() { buildPanel = build })
	return &n
}

// TestWalkProducesEachInputOnce writes the report, the walk of every
// stage, with the Grizzly panels at the tiny preset. Each section must hold
// the body of its stage walked alone, byte for byte. The report must
// generate the Grizzly dataset once, where its stages walked alone generate
// it once each for Table 2, Figure 2, Figure 5 and Figure 8, and must build
// each (trace, overestimation) panel once: Figure 5's 12 synthetic and 2
// Grizzly panels, and the 4 synthetic and 4 Grizzly panels of Figure 8 that
// Figure 5 lacks. It runs under -short, so the race detector sees the
// Grizzly panels of Figures 5 and 8 read the shared sampled weeks
// concurrently.
func TestWalkProducesEachInputOnce(t *testing.T) {
	p := tiny()
	opts := WalkOptions{Grizzly: true}
	n := countGenerations(t)
	built := countPanels(t)
	var report bytes.Buffer
	if err := WriteReport(&report, p, opts); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("the report generated %d Grizzly datasets, want 1", got)
	}
	if got := built.Load(); got != 22 {
		t.Fatalf("the report built %d panels, want 22", got)
	}
	all, err := Stages("all")
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(report.String(), "\n## ")[1:]
	if len(sections) != len(all) {
		t.Fatalf("report has %d sections for %d stages", len(sections), len(all))
	}
	// The panels each stage builds walked alone: Figure 9 builds Figure 8's
	// synthetic row, and the headlines Figure 5's synthetic panels and the
	// 4 of Figure 8's synthetic row that Figure 5 lacks.
	panelsAlone := map[string]int32{"fig5": 14, "fig8": 12, "fig9": 6, "headlines": 16}
	for i, st := range all {
		before, builtBefore := n.Load(), built.Load()
		var body string
		err := Walk(p, []Stage{st}, opts, func(_ Stage, res fmt.Stringer) error {
			body = res.String()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := st.Title + "\n\n```\n" + body + "```\n"; !strings.HasPrefix(sections[i], want) {
			t.Errorf("report section %d differs from stage %s walked alone:\n%s\n---\n%s", i, st.Name, sections[i], want)
		}
		want := int32(0)
		if st.reads != 0 {
			want = 1
		}
		if got := n.Load() - before; got != want {
			t.Errorf("%s walked alone generated %d Grizzly datasets, want %d", st.Name, got, want)
		}
		if got, want := built.Load()-builtBefore, panelsAlone[st.Name]; got != want {
			t.Errorf("%s walked alone built %d panels, want %d", st.Name, got, want)
		}
	}
}

func TestStagesSelection(t *testing.T) {
	all, err := Stages("all")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range all {
		if seen[st.Name] {
			t.Fatalf("stage %s listed twice", st.Name)
		}
		seen[st.Name] = true
		one, err := Stages(st.Name)
		if err != nil || len(one) != 1 || one[0].Name != st.Name {
			t.Fatalf("Stages(%q) = %v, %v", st.Name, one, err)
		}
	}
	abl, err := Stages("ablations")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, st := range abl {
		names = append(names, st.Name)
	}
	if got := strings.Join(names, " "); got != "ab-update ab-oom ab-backfill ab-lender ab-priority" {
		t.Fatalf("ablations = %s", got)
	}
	if _, err := Stages("fig10"); err == nil {
		t.Fatal("unknown stage accepted")
	}
}
