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
// core.TestLazyBankingMatchesEager. All six were re-recorded, deliberately,
// when every synthetic trace began reading one shape library mined from a
// fixed Borg cell instead of drawing a cell from its own seed: every
// synthetic job's peak and usage shape moved.
//
// To regenerate after an intentional behaviour change, run the test and
// copy the "got" digests it prints on failure.
var goldenPipelineDigests = map[string]string{
	"fig5":      "68d96ce5b676ef7fd988192ba93159cb141fcac5f1881dd9f5682360102046fa",
	"fig6":      "37b4b940f2c9a7c1e4b0fc35338cfeeb0f0e673b693fe142f14674289b572a66",
	"fig7":      "4135bff71c3b6f533df4c6434f307466226003c46d901b588e652e184f9e6a2d",
	"fig8":      "bb42f454889334edbccd777ebca21dc63a2ec027b7b6ffdcef375f3d69110f03",
	"fig9":      "22a9d79a45b43a5bc44313a75280e7e19c21f7e42a976bf248888e4c95a80dc4",
	"headlines": "6d5f01c68beb892d2ad5a2fc76a6b516cb450973d3072e3037102b9c98a93141",
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
// sampled weeks): Table 2 and Figure 2 over the dataset's skeleton, and
// Figure 5's two Grizzly panels over the built weeks. They were re-recorded
// when the dataset came to draw job skeletons and each usage trace from its
// own substream, reduced with its peak sample kept.
var goldenGrizzlyDigests = map[string]string{
	"table2":          "84b91c4a69e4599616cda924f0168e2666fd0ee3122b0e8881855a72504ebcc6",
	"fig2":            "26fae4410ffade5a635fe046ef1c8f10508368142dc0e61579b8efa52cf58f0d",
	"fig5-grizzly+0":  "40394b06c5e46015b5ed58fc1997fe2a9e935d3b263829bd185ebf4d306ee77a",
	"fig5-grizzly+60": "04939eca3c1e8a988b30070fb3b7c7b7127960ab3a7a3edec75de349ce48c2a2",
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
		g, err := p.grizzlyGrid(weeks, ov)
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
