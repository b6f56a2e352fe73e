package tracegen

import (
	"bytes"
	"math"
	"testing"

	"dismem/internal/swf"
)

func smallParams() Params {
	return Params{
		SystemNodes:       64,
		Load:              0.7,
		Days:              1,
		LargeFrac:         0.5,
		Overestimation:    0.6,
		GoogleCollections: 1500,
		Seed:              1,
	}
}

func TestRunPipeline(t *testing.T) {
	out, err := Run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) == 0 || len(out.Jobs) != len(out.Specs) {
		t.Fatalf("jobs=%d specs=%d", len(out.Jobs), len(out.Specs))
	}
	for _, j := range out.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.RequestMB < j.PeakUsageMB() {
			t.Fatalf("job %d: request %d below peak %d", j.ID, j.RequestMB, j.PeakUsageMB())
		}
	}
}

// TestLargeJobMix checks Step 7: each job is large with probability
// LargeFrac, so the achieved share is binomial and must land within four
// standard deviations of the requested one. A 10-job trace has an sd near
// 0.16 and could not tell a mix from noise, so each trace here holds at
// least 1,000 jobs (sd at most 0.016). Three mixes, far apart, catch a
// generator that ignores LargeFrac whatever fixed share it draws instead.
func TestLargeJobMix(t *testing.T) {
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		p := smallParams()
		p.Days = 150
		p.LargeFrac = frac
		out, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		n := len(out.Jobs)
		if n < 1000 {
			t.Fatalf("LargeFrac %g: %d jobs, want at least 1,000 for a tight band", frac, n)
		}
		tol := 4 * math.Sqrt(frac*(1-frac)/float64(n))
		if f := out.LargeJobFraction(); math.Abs(f-frac) > tol {
			t.Errorf("LargeFrac %g: achieved %.4f over %d jobs, want within ±%.4f", frac, f, n, tol)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.SubmitTime != jb.SubmitTime || ja.Nodes != jb.Nodes ||
			ja.RequestMB != jb.RequestMB || ja.BaseRuntime != jb.BaseRuntime {
			t.Fatalf("job %d differs between identical runs", i)
		}
	}
}

func TestOverestimationAffectsRequestsOnly(t *testing.T) {
	p0 := smallParams()
	p0.Overestimation = 0
	p6 := smallParams()
	p6.Overestimation = 0.6
	a, err := Run(p0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].PeakUsageMB() != b.Jobs[i].PeakUsageMB() {
			t.Fatalf("job %d: peaks differ across overestimation settings", i)
		}
		want := int64(float64(a.Jobs[i].PeakUsageMB()) * 1.6)
		if b.Jobs[i].RequestMB != want {
			t.Fatalf("job %d: request %d, want %d", i, b.Jobs[i].RequestMB, want)
		}
	}
	// +0 %: request equals peak (the paper's conservative baseline).
	for _, j := range a.Jobs {
		if j.RequestMB != j.PeakUsageMB() {
			t.Fatalf("job %d: +0%% request %d != peak %d", j.ID, j.RequestMB, j.PeakUsageMB())
		}
	}
}

func TestWriteSWF(t *testing.T) {
	out, err := Run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.WriteSWF(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := swf.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != len(out.Jobs) {
		t.Fatalf("SWF records = %d, want %d", len(f.Records), len(out.Jobs))
	}
	cores := out.Params.CoresPerNode
	for i, r := range f.Records {
		if r.ReqProcs != out.Jobs[i].Nodes*cores {
			t.Fatalf("job %d: %d processors in SWF, want %d nodes × %d cores", i, r.ReqProcs, out.Jobs[i].Nodes, cores)
		}
	}
}

func TestLublinModel(t *testing.T) {
	p := smallParams()
	p.Model = "lublin"
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) == 0 {
		t.Fatal("lublin model produced no jobs")
	}
	for _, j := range out.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownModelRejected(t *testing.T) {
	p := smallParams()
	p.Model = "feitelson96"
	if _, err := Run(p); err == nil {
		t.Fatal("unknown model accepted")
	}
}
