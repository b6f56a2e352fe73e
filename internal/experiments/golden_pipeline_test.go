package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"dismem/internal/job"
	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/sweep"
)

// Golden digests of the whole figure pipeline at the Quick() preset,
// first recorded on the pre-pipeline implementation: the serial
// RunFig5/6/7/8/9 and RunHeadlines that generated every trace from scratch
// and ran each stage behind a barrier. The pooled, cached pipeline must
// reproduce every figure bit-for-bit (float64 bit patterns included); a
// digest change here means a restructuring altered results, which is a bug,
// not drift. fig5–fig8 were re-recorded once, deliberately, when progress
// banking became lazy (a job is banked only when its slowdown changes): the
// float rounding of progress moved, the schedule did not — see
// core.TestLazyBankingMatchesEager.
//
// To regenerate after an intentional behaviour change, run the test and
// copy the "got" digests it prints on failure.
var goldenPipelineDigests = map[string]string{
	"fig5":      "67ea21da33904ce82b3885860d6897336164ed296bdd0bc2ae0261d3aea2203b",
	"fig6":      "4b1b4d1f23865d0a89af92788247ff8dee409786cb62c7d9109b0be151493b2c",
	"fig7":      "a2e975cdb22fab1a2b67057d28ec5d9879df516dd0e327f70ce0eb1efb6db4af",
	"fig8":      "fe20eed8b3698ca42ee2ac51ee3f1d24e75cab923588ec89e02be672c0c9b5e6",
	"fig9":      "ce9ae7b21d3df63535ca85f3f17340e0b3ffcc9cf85a0ca81ff7b5c5326ae24e",
	"headlines": "c053fa812dafe93933bdc0659af80f3df0b94bdfdf437afe57f48ab5684ec905",
}

// fbits folds a float64 into the digest as its exact IEEE-754 bit pattern.
func fbits(b *strings.Builder, f float64) { fmt.Fprintf(b, "%016x,", math.Float64bits(f)) }

func digestGrid(b *strings.Builder, g *ThroughputGrid) {
	fmt.Fprintf(b, "trace=%s,", g.Trace)
	fbits(b, g.Overest)
	for _, r := range g.Rows {
		fmt.Fprintf(b, "mem=%d,", r.MemPct)
		fbits(b, r.Baseline)
		fbits(b, r.Static)
		fbits(b, r.Dynamic)
	}
}

func seal(b *strings.Builder) string {
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func digestFig5(f *Fig5) string {
	var b strings.Builder
	for _, g := range f.Panels {
		digestGrid(&b, g)
	}
	return seal(&b)
}

func digestECDF(b *strings.Builder, e *metrics.ECDF) {
	if e == nil {
		b.WriteString("nil,")
		return
	}
	fmt.Fprintf(b, "n=%d,", e.Len())
	for _, pt := range e.Points(0) {
		fbits(b, pt.X)
		fbits(b, pt.P)
	}
}

func digestFig6(f *Fig6) string {
	var b strings.Builder
	for i := range f.Panels {
		p := &f.Panels[i]
		fmt.Fprintf(&b, "sc=%s,mem=%d,", p.Scenario, p.MemPct)
		fbits(&b, p.Overest)
		digestECDF(&b, p.Static)
		digestECDF(&b, p.Dynamic)
	}
	return seal(&b)
}

func digestFig7(f *Fig7) string {
	var b strings.Builder
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "sys=%d,", p.SysPct)
		fbits(&b, p.Overest)
		for _, pt := range p.Points {
			fmt.Fprintf(&b, "large=%d,", pt.LargePct)
			fbits(&b, pt.Static)
			fbits(&b, pt.Dynamic)
		}
	}
	return seal(&b)
}

func digestFig8(f *Fig8) string {
	var b strings.Builder
	for _, g := range f.Synthetic {
		digestGrid(&b, g)
	}
	b.WriteString("grizzly,")
	for _, g := range f.Grizzly {
		digestGrid(&b, g)
	}
	return seal(&b)
}

func digestFig9(f *Fig9) string {
	var b strings.Builder
	fbits(&b, f.Threshold)
	for _, pt := range f.Points {
		fbits(&b, pt.Overest)
		fmt.Fprintf(&b, "static=%d,dynamic=%d,", pt.StaticPct, pt.DynamicPct)
	}
	return seal(&b)
}

func digestStat(b *strings.Builder, s Stat) {
	fbits(b, s.Mean)
	fbits(b, s.Stdev)
	fmt.Fprintf(b, "n=%d,", s.N)
}

func digestHeadlines(h *Headlines) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seeds=%d,", h.Seeds)
	digestStat(&b, h.ThroughputGainPts)
	digestStat(&b, h.TPDGainFrac)
	digestStat(&b, h.MedianRespReduct)
	digestStat(&b, h.MemorySavingPoints)
	return seal(&b)
}

// TestGoldenPipelineDigest is the determinism regression gate for the
// barrier-free experiment pipeline: every figure and the replicated
// headline metrics, at the Quick() preset, must match the digests captured
// on the serial, uncached implementation.
func TestGoldenPipelineDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-pipeline golden run is expensive; skipped with -short")
	}
	p := Quick()
	steps := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig5", func() (string, error) {
			f, err := RunFig5(p, nil)
			if err != nil {
				return "", err
			}
			return digestFig5(f), nil
		}},
		{"fig6", func() (string, error) {
			f, err := RunFig6(p)
			if err != nil {
				return "", err
			}
			return digestFig6(f), nil
		}},
		{"fig7", func() (string, error) {
			f, err := RunFig7(p)
			if err != nil {
				return "", err
			}
			return digestFig7(f), nil
		}},
		{"fig8", func() (string, error) {
			f, err := RunFig8(p, nil)
			if err != nil {
				return "", err
			}
			return digestFig8(f), nil
		}},
		{"fig9", func() (string, error) {
			f, err := RunFig9(p)
			if err != nil {
				return "", err
			}
			return digestFig9(f), nil
		}},
		{"headlines", func() (string, error) {
			h, err := RunHeadlines(p, 2)
			if err != nil {
				return "", err
			}
			return digestHeadlines(h), nil
		}},
	}
	for _, s := range steps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			got, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if want := goldenPipelineDigests[s.name]; got != want {
				t.Fatalf("digest mismatch for %s:\n  got  %s\n  want %s", s.name, got, want)
			}
		})
	}
}

// TestFig5PipelineMatchesSerial compares the live pipelines head to head,
// with no recorded digests in between: the barrier-free pooled run served
// from the trace cache must equal the serial run that generates every
// trace from scratch, down to the last float64 bit. This covers both
// axes the tentpole changed — pooled-vs-serial scheduling and
// cached-vs-uncached trace generation.
func TestFig5PipelineMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Fig. 5 runs are expensive; skipped with -short")
	}
	p := Quick()
	serial, err := runFig5Serial(p)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunFig5(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, dp := digestFig5(serial), digestFig5(pooled)
	if ds != dp {
		t.Fatalf("pooled+cached pipeline diverged from the serial reference:\n  serial %s\n  pooled %s", ds, dp)
	}
}

// runFig5Serial is the pre-pipeline Fig. 5 driver for the synthetic
// columns, kept as a test reference: every stage in sequence, every trace
// generated from scratch, barriers between stages. The barrier-free
// pipeline must match it bit-for-bit.
func runFig5Serial(p Preset) (*Fig5, error) {
	out := &Fig5{}
	for _, lf := range Fig5LargeFracs {
		label := fmt.Sprintf("large %.0f%%", lf*100)
		// Normalisation uses the +0 % trace, shared by the column; every
		// generation bypasses the cache, as the pre-pipeline code did.
		trace0, err := p.SyntheticTraceUncached(lf, 0)
		if err != nil {
			return nil, err
		}
		norm, err := p.BaselineNorm(trace0.Jobs, p.SystemNodes)
		if err != nil {
			return nil, err
		}
		for _, ov := range Fig5Overests {
			jobs := trace0.Jobs
			if ov != 0 {
				tr, err := p.SyntheticTraceUncached(lf, ov)
				if err != nil {
					return nil, err
				}
				jobs = tr.Jobs
			}
			g, err := p.ThroughputSweep(jobs, p.SystemNodes, norm, label, ov)
			if err != nil {
				return nil, err
			}
			out.Panels = append(out.Panels, g)
		}
	}
	return out, nil
}

// ThroughputSweep runs all three policies over every memory configuration
// on jobs and normalises by norm: one panel of the serial reference, its 24
// scenarios run in parallel.
func (p Preset) ThroughputSweep(jobs []*job.Job, nodes int, norm float64, trace string, overest float64) (*ThroughputGrid, error) {
	mcs := MemoryConfigs()
	pols := []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}
	tasks := make([]sweep.Task[float64], 0, len(mcs)*len(pols))
	for _, mc := range mcs {
		for _, pol := range pols {
			tasks = append(tasks, func() (float64, error) {
				res, err := p.RunScenario(jobs, nodes, mc, pol)
				if err != nil {
					return 0, err
				}
				if res.Infeasible {
					return Infeasible, nil
				}
				return res.Throughput() / norm, nil
			})
		}
	}
	values, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}
	g := &ThroughputGrid{Trace: trace, Overest: overest}
	for i, mc := range mcs {
		v := values[i*len(pols):]
		g.Rows = append(g.Rows, ThroughputRow{MemPct: mc.LabelPct, Baseline: v[0], Static: v[1], Dynamic: v[2]})
	}
	return g, nil
}

// Golden digests of the Grizzly path at the multiWeek() preset (three
// sampled weeks): Table 2 and Figure 2 over the dataset, and Figure 5's
// two Grizzly panels. They were recorded when every Grizzly reader
// generated its own dataset; reading one dataset and one copy of its
// sampled weeks must reproduce them bit-for-bit.
var goldenGrizzlyDigests = map[string]string{
	"table2":          "87b8c84954c770ef3381095fabc31c40a7f45e9b78fafd0e8b05b54d61fff178",
	"fig2":            "c0d61ee4b2555abe9b86e76b31f261bbb44afff140af98c43b30268455c1ebc8",
	"fig5-grizzly+0":  "f0f1dda756a730d3871375ebfb27f5a7ce20dabafe7b7b6d6dbb68820ed8da85",
	"fig5-grizzly+60": "e8d87acc95a47cded63659bf071ca7399aae60102a35b2e9259eb8e5cee7fd6b",
}

func digestTable2(t *Table2) string {
	var b strings.Builder
	for _, bucket := range t.Buckets {
		fmt.Fprintf(&b, "bucket=%s,", bucket)
	}
	for _, group := range [][3][]float64{t.Synthetic, t.Grizzly} {
		for _, shares := range group {
			for _, s := range shares {
				fbits(&b, s)
			}
			b.WriteString(";")
		}
	}
	return seal(&b)
}

func digestFig2(f *Fig2) string {
	var b strings.Builder
	fbits(&b, f.MaxNodeHours)
	fmt.Fprintf(&b, "maxmem=%d,", f.MaxMemMB)
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "week=%d,mem=%d,sampled=%t,", pt.Week, pt.MemMB, pt.Sampled)
		fbits(&b, pt.Utilization)
		fbits(&b, pt.NodeHours)
	}
	return seal(&b)
}

// TestGoldenGrizzlyDigest holds the Grizzly readers to the digests above.
func TestGoldenGrizzlyDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Grizzly run; skipped with -short like the pipeline goldens")
	}
	p := multiWeek()
	d := p.GrizzlyDataset()
	weeks := p.SampledWeeks(d)
	if len(weeks) != 3 {
		t.Fatalf("sampled %d weeks, want 3", len(weeks))
	}
	grid := func(ov float64) (string, error) {
		g, err := p.GrizzlyGrid(weeks, ov)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		digestGrid(&b, g)
		return seal(&b), nil
	}
	steps := []struct {
		name string
		run  func() (string, error)
	}{
		{"table2", func() (string, error) {
			tb, err := RunTable2(p, d)
			if err != nil {
				return "", err
			}
			return digestTable2(tb), nil
		}},
		{"fig2", func() (string, error) {
			f, err := RunFig2(p, d)
			if err != nil {
				return "", err
			}
			return digestFig2(f), nil
		}},
		{"fig5-grizzly+0", func() (string, error) { return grid(0) }},
		{"fig5-grizzly+60", func() (string, error) { return grid(0.6) }},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			got, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if want := goldenGrizzlyDigests[s.name]; got != want {
				t.Fatalf("digest mismatch for %s:\n  got  %s\n  want %s", s.name, got, want)
			}
		})
	}
}
