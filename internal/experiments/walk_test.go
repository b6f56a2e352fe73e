package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dismem/internal/core"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/tracegen"
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

// weekBuilds counts the sampled weeks whose usage traces are built, by
// week index, and checks that every Grizzly simulation reads traces they
// built: that building a week's jobs built none.
type weekBuilds struct {
	mu     sync.Mutex
	n      map[int]int
	traces map[*memtrace.Trace]bool
	stray  int // Grizzly simulations that read a trace no week build made
}

// countWeekBuilds counts the week builds until the test ends. Install it
// before countSimulations, so the simulations it checks are counted too.
func countWeekBuilds(t *testing.T, p Preset) *weekBuilds {
	b := &weekBuilds{n: map[int]int{}, traces: map[*memtrace.Trace]bool{}}
	build := buildWeek
	buildWeek = func(w *grizzly.Week) {
		build(w)
		b.mu.Lock()
		defer b.mu.Unlock()
		b.n[w.Index]++
		for i := range w.Jobs {
			b.traces[w.Jobs[i].Usage] = true
		}
	}
	sim := simulate
	simulate = func(cfg core.Config, jobs []*job.Job) (*core.Result, error) {
		if cfg.Cluster.Nodes == p.GrizzlyNodes {
			b.mu.Lock()
			for _, j := range jobs {
				if !b.traces[j.Usage] {
					b.stray++
					break
				}
			}
			b.mu.Unlock()
		}
		return sim(cfg, jobs)
	}
	t.Cleanup(func() { buildWeek, simulate = build, sim })
	return b
}

// take returns the builds by week index and the stray simulations so far
// and starts the count afresh; the built traces stay known.
func (b *weekBuilds) take() (map[int]int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, stray := b.n, b.stray
	b.n, b.stray = map[int]int{}, 0
	return n, stray
}

// simulations counts the simulations run while it is installed, and the
// ones that repeat an earlier simulation of the same content since the last
// take.
type simulations struct {
	mu      sync.Mutex
	seen    map[[32]byte]bool
	n       int
	repeats []core.Config
}

// countSimulations counts every simulation run until the test ends.
func countSimulations(t *testing.T) *simulations {
	s := &simulations{seen: map[[32]byte]bool{}}
	sim := simulate
	simulate = func(cfg core.Config, jobs []*job.Job) (*core.Result, error) {
		k := simContent(cfg, jobs)
		s.mu.Lock()
		s.n++
		if s.seen[k] {
			s.repeats = append(s.repeats, cfg)
		}
		s.seen[k] = true
		s.mu.Unlock()
		return sim(cfg, jobs)
	}
	t.Cleanup(func() { simulate = sim })
	return s
}

// take returns the count and the repeats so far and starts afresh.
func (s *simulations) take() (int, []core.Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, repeats := s.n, s.repeats
	s.seen, s.n, s.repeats = map[[32]byte]bool{}, 0, nil
	return n, repeats
}

// simContent hashes what a simulation depends on: its configuration, with
// the observer that the update-interval ablation attaches left out and the
// topology taken by value, and every job's scheduler and ground-truth
// fields.
func simContent(cfg core.Config, jobs []*job.Job) [32]byte {
	var b strings.Builder
	topo := cfg.Topology
	cfg.Observer, cfg.Topology = nil, nil
	fmt.Fprintf(&b, "%+v|", cfg)
	if topo != nil {
		fmt.Fprintf(&b, "%+v", *topo)
	}
	for _, j := range jobs {
		fmt.Fprintf(&b, "|%d %x %d %d %x %d %x %d", j.ID, math.Float64bits(j.SubmitTime), j.Nodes, j.RequestMB,
			math.Float64bits(j.LimitSec), j.DependsOn, math.Float64bits(j.BaseRuntime), j.Usage.Peak())
	}
	return sha256.Sum256([]byte(b.String()))
}

// simulationsAlone is how many simulations each stage that simulates ran
// walked alone before the walk kept a table of cells. No stage may run
// more.
var simulationsAlone = map[string]int{
	"fig5": 350, "fig6": 12, "fig7": 80, "fig8": 300, "fig9": 150, "util": 24, "xmodel": 50,
	"ab-update": 5, "ab-oom": 5, "ab-backfill": 7, "ab-lender": 7, "ab-priority": 4, "headlines": 492,
}

// TestWalkProducesEachInputOnce writes the report, the walk of every
// stage, with the Grizzly panels at the tiny preset. Each section must hold
// the body of its stage walked alone, byte for byte. The report must
// generate the Grizzly dataset once, where its stages walked alone generate
// it once each for Table 2, Figure 2, Figure 5 and Figure 8. It must build
// each sampled week's usage traces once, and every Grizzly simulation must
// read those traces; Table 2 and Figure 2 walked alone build none, and
// Figures 5 and 8 each build every sampled week once. The report and the
// stages alone must generate each synthetic trace once: nothing the walk
// asks for is evicted from the trace cache. It must simulate each cell once: 596 simulations, where 744 ran before the walk
// kept a table of cells. The only repeats left are the four ablation arms
// that set a knob to its default and so run a cell of Figure 5 again, on
// the ablations' 50 % system: the 300 s update interval, fail/restart, and
// EASY backfill under static and dynamic. No stage walked alone repeats a
// simulation or runs more than it did before the table. It runs under
// -short, so the race detector sees the stages read the table and the
// Grizzly panels read the shared sampled weeks concurrently.
func TestWalkProducesEachInputOnce(t *testing.T) {
	p := tiny()
	opts := WalkOptions{Grizzly: true}
	n := countGenerations(t)
	builds := countWeekBuilds(t, p)
	sims := countSimulations(t)
	tracegen.ResetCache()
	var report bytes.Buffer
	if err := WriteReport(&report, p, opts); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("the report generated %d Grizzly datasets, want 1", got)
	}
	var sampled []int
	for _, w := range p.PickWeeks(p.GrizzlyDataset()) {
		sampled = append(sampled, w.Index)
	}
	onceEach := func(what string) {
		t.Helper()
		built, stray := builds.take()
		want := map[int]int{}
		for _, i := range sampled {
			want[i] = 1
		}
		if !maps.Equal(built, want) {
			t.Errorf("%s built weeks %v (index: builds), want each sampled week %v once", what, built, sampled)
		}
		if stray != 0 {
			t.Errorf("%s ran %d Grizzly simulations on traces no week build made", what, stray)
		}
	}
	onceEach("the report")
	ran, repeats := sims.take()
	if ran != 596 {
		t.Errorf("the report ran %d simulations, want 596", ran)
	}
	var pols []string
	for _, cfg := range repeats {
		pol := cfg.Policy.String()
		if cfg.Cluster.NormalMB != NormalNodeMB || cfg.Cluster.LargeFrac != 0 {
			pol += " off the 50% system"
		}
		pols = append(pols, pol)
	}
	slices.Sort(pols)
	if got := strings.Join(pols, ", "); got != "dynamic, dynamic, dynamic, static" {
		t.Errorf("the report repeated simulations (%s), want only the four default-knob ablation arms (dynamic, dynamic, dynamic, static)", got)
	}
	all, err := Stages("all")
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(report.String(), "\n## ")[1:]
	if len(sections) != len(all) {
		t.Fatalf("report has %d sections for %d stages", len(sections), len(all))
	}
	for i, st := range all {
		before := n.Load()
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
		if st.grizzly {
			want = 1
		}
		if got := n.Load() - before; got != want {
			t.Errorf("%s walked alone generated %d Grizzly datasets, want %d", st.Name, got, want)
		}
		switch st.Name {
		case "fig5", "fig8":
			onceEach(st.Name + " walked alone")
		default:
			if built, _ := builds.take(); len(built) != 0 {
				t.Errorf("%s walked alone built weeks %v, want none", st.Name, built)
			}
		}
		ran, repeats := sims.take()
		if ran > simulationsAlone[st.Name] {
			t.Errorf("%s walked alone ran %d simulations, more than the %d it ran before", st.Name, ran, simulationsAlone[st.Name])
		}
		if len(repeats) != 0 {
			t.Errorf("%s walked alone repeated %d simulations", st.Name, len(repeats))
		}
	}
	// An LRU evicts nothing below its bound, so misses equal the entries
	// kept exactly when no trace the walk asked for was generated twice.
	if entries, _, misses := tracegen.CacheStats(); misses != int64(entries) {
		t.Errorf("the walks generated %d synthetic traces and kept %d: a trace was evicted and generated again", misses, entries)
	}
}

// TestCellsSingleFlight asks for one cell from several goroutines at once.
// The table must simulate it once and hand every reader its outcome, and a
// reference to the same content through another trace value must read the
// same cell. The table keeps the response times of Figure 6's cells only.
func TestCellsSingleFlight(t *testing.T) {
	sims := countSimulations(t)
	c := newCells(tiny())
	ref := cellRef{c.synthetic(0.5, 0.6), fullMemory, policy.Dynamic}
	outs := make([]outcome, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			o, err := c.get(ref).Get()
			if err != nil {
				t.Error(err)
			}
			outs[i] = o
		}()
	}
	close(start)
	wg.Wait()
	again := cellRef{c.synthetic(0.5, 0.6), MemConfig{NormalMB: fullMemory.NormalMB, LargeFrac: fullMemory.LargeFrac}, policy.Dynamic}
	if c.get(again) != c.get(ref) {
		t.Fatal("a reference to the same content read another cell")
	}
	if ran, _ := sims.take(); ran != 1 {
		t.Fatalf("%d readers of one cell ran %d simulations, want 1", len(outs), ran)
	}
	for i, o := range outs {
		if o.infeasible || o.throughput != outs[0].throughput || len(o.responses) != len(outs[0].responses) {
			t.Fatalf("reader %d read %+v, reader 0 %+v", i, o, outs[0])
		}
	}
	if len(outs[0].responses) == 0 {
		t.Fatal("a cell of Figure 6 kept no response times")
	}
	base, err := c.get(cellRef{ref.tr, fullMemory, policy.Baseline}).Get()
	if err != nil {
		t.Fatal(err)
	}
	if base.responses != nil {
		t.Fatal("a cell outside Figure 6 kept its response times")
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
