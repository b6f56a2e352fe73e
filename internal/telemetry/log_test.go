package telemetry

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomValue draws an int64 that is often an edge: zero, ±1, the int32
// boundaries and beyond, or the int64 extremes.
func randomValue(rng *rand.Rand) int64 {
	edges := []int64{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1,
		1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	if rng.Intn(3) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return rng.Int63n(1<<20) - 1<<19
}

// randomFloat draws a float that is often an edge of the encoder: signed
// zeros, infinities, NaN, subnormals and huge magnitudes.
func randomFloat(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 0.1}
	if rng.Intn(3) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
}

var randomDetails = []string{"", "", "", "completed", "oom-killed", "repack", "größe", "日本語 \"q\"\n",
	"\x00ctl\t", "\xff\xfe", "emoji 🚀"}

// TestLogRendersAsJSONL is the Log's byte-identity property: any sequence
// of events and samples, fed through a Log and rendered, reads exactly as
// the JSONL sink writes it.
func TestLogRendersAsJSONL(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var want bytes.Buffer
		j := NewJSONL(&want)
		l := &Log{}
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				s := Sample{T: randomFloat(rng), FreeMB: randomValue(rng), LentMB: randomValue(rng),
					Queue: int(randomValue(rng)), Busy: int(randomValue(rng)), Running: int(randomValue(rng))}
				_ = j.Sample(&s)
				_ = l.Sample(&s)
				continue
			}
			e := Event{T: randomFloat(rng), Kind: Kind(rng.Intn(int(KindCount) + 1)),
				Job: int(randomValue(rng)), Node: int(randomValue(rng)), Lender: int(randomValue(rng)),
				MB: randomValue(rng), Aux: randomValue(rng), V: randomFloat(rng),
				Detail: randomDetails[rng.Intn(len(randomDetails))]}
			_ = j.Event(&e)
			_ = l.Event(&e)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := l.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: rendered log differs from the JSONL sink (%d vs %d bytes)",
				seed, got.Len(), want.Len())
		}
	}
}

// TestLogConcurrentRenders renders one closed log from several goroutines
// at once; under -race this checks that renderings share no scratch.
func TestLogConcurrentRenders(t *testing.T) {
	l := &Log{}
	r := New(Options{Sink: l, SampleInterval: 1})
	for i := 0; i < 200; i++ {
		emitFixture(r)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := l.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 4)
	for i := range outs {
		wg.Add(1)
		go func(b *bytes.Buffer) {
			defer wg.Done()
			_ = l.WriteJSONL(b)
		}(&outs[i])
	}
	wg.Wait()
	for i := range outs {
		if !bytes.Equal(outs[i].Bytes(), want.Bytes()) {
			t.Fatalf("concurrent rendering %d differs", i)
		}
	}
}

// TestEmitDoesNotAllocate locks the enabled emit path: with a sink that
// itself does not allocate, recording an event or a sample costs no
// allocation.
func TestEmitDoesNotAllocate(t *testing.T) {
	r := New(Options{Sink: NewJSONL(io.Discard), SampleInterval: 60})
	emitAll := func() {
		r.SetNow(1)
		r.JobSubmit(1, true)
		r.JobStart(1, 2, 100, 50)
		r.JobEnd(1, "completed", 1)
		r.JobAttemptEnd(1, "oom-killed", 1)
		r.LeaseGrant(1, 2, 3, 64)
		r.LeaseAdjust(1, 2, 32, 16)
		r.LeaseRevoke(1, 2, 3, 64)
		r.BackfillHole(4, 9)
		r.BackfillPlace(4)
		r.Branch("b", 1, 2, 3)
	}
	emitAll() // size the encoder's scratch
	if allocs := testing.AllocsPerRun(1000, emitAll); allocs != 0 {
		t.Fatalf("emit allocated %v times per run; want 0", allocs)
	}
	// Sample also appends to the recorder's own series, whose doubling
	// growth AllocsPerRun's integer mean reads as 0; a sample moved to the
	// heap on its way to the sink would read 1.
	if allocs := testing.AllocsPerRun(1000, func() { r.Sample(1, 2, 3, 4, 5, 6) }); allocs != 0 {
		t.Fatalf("Sample allocated %v times per run", allocs)
	}
}
