package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"
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
// the JSONL sink writes it, and both read as the cache-free reference. Random lengths stay within the first chunks;
// the fixed ones sit on and around the ends of the first eight chunks,
// the last two of full size.
func TestLogRendersAsJSONL(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkLogRendersAsJSONL(t, rng, rng.Intn(2000))
	}
	counts := []int{0, 1, maxChunk - 1, maxChunk, maxChunk + 1, 3*maxChunk + 7}
	for _, end := range chunkEnds(8) {
		counts = append(counts, end-1, end, end+1)
	}
	for i, n := range counts {
		checkLogRendersAsJSONL(t, rand.New(rand.NewSource(int64(100+i))), n)
	}
}

// chunkEnds returns the record counts at which a log's first n chunks
// fill.
func chunkEnds(n int) []int {
	ends := make([]int, 0, n)
	total, size := 0, firstChunk
	for range n {
		total += size
		ends = append(ends, total)
		size = min(2*size, maxChunk)
	}
	return ends
}

// checkLogRendersAsJSONL feeds n random records to a Log and to the JSONL
// sink and compares the bytes with the cache-free reference.
func checkLogRendersAsJSONL(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	recs := make([]emission, n)
	for i := range recs {
		if rng.Intn(4) == 0 {
			recs[i].s = &Sample{T: randomFloat(rng), FreeMB: randomValue(rng), LentMB: randomValue(rng),
				Queue: int(randomValue(rng)), Busy: int(randomValue(rng)), Running: int(randomValue(rng))}
			continue
		}
		recs[i].e = &Event{T: randomFloat(rng), Kind: Kind(rng.Intn(int(KindCount) + 1)),
			Job: int(randomValue(rng)), Node: int(randomValue(rng)), Lender: int(randomValue(rng)),
			MB: randomValue(rng), Aux: randomValue(rng), V: randomFloat(rng),
			Detail: randomDetails[rng.Intn(len(randomDetails))]}
	}
	checkRenders(t, recs)
}

// emission is one event or one sample.
type emission struct {
	e *Event
	s *Sample
}

// checkRenders feeds recs to the JSONL sink and to a Log, renders the log,
// and requires both streams to equal the cache-free reference's bytes.
func checkRenders(t *testing.T, recs []emission) {
	t.Helper()
	var want []byte
	var sinkOut, logOut bytes.Buffer
	j := NewJSONL(&sinkOut)
	l := &Log{}
	for _, r := range recs {
		if r.s != nil {
			want = appendSampleRef(want, r.s)
			_ = j.Sample(r.s)
			_ = l.Sample(r.s)
			continue
		}
		want = appendEventRef(want, r.e)
		_ = j.Event(r.e)
		_ = l.Event(r.e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(&logOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sinkOut.Bytes(), want) {
		t.Fatalf("%d records: JSONL sink differs from the reference:\n%s", len(recs), firstDiff(sinkOut.Bytes(), want))
	}
	if !bytes.Equal(logOut.Bytes(), want) {
		t.Fatalf("%d records: rendered log differs from the reference:\n%s", len(recs), firstDiff(logOut.Bytes(), want))
	}
}

// firstDiff quotes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// appendEventRef and appendSampleRef are the cache-free encoder, which
// formats every float afresh: the oracle the encoder's last-text caches
// are held to.
func appendEventRef(b []byte, e *Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","job":`...)
	b = strconv.AppendInt(b, int64(e.Job), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"lender":`...)
	b = strconv.AppendInt(b, int64(e.Lender), 10)
	b = append(b, `,"mb":`...)
	b = strconv.AppendInt(b, e.MB, 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, e.Aux, 10)
	b = append(b, `,"v":"`...)
	b = strconv.AppendFloat(b, e.V, 'g', -1, 64)
	b = append(b, `","detail":`...)
	b = strconv.AppendQuote(b, e.Detail)
	return append(b, "}\n"...)
}

func appendSampleRef(b []byte, s *Sample) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, s.T, 'g', -1, 64)
	b = append(b, `,"ev":"pool_sample","free_mb":`...)
	b = strconv.AppendInt(b, s.FreeMB, 10)
	b = append(b, `,"lent_mb":`...)
	b = strconv.AppendInt(b, s.LentMB, 10)
	b = append(b, `,"queue":`...)
	b = strconv.AppendInt(b, int64(s.Queue), 10)
	b = append(b, `,"busy":`...)
	b = strconv.AppendInt(b, int64(s.Busy), 10)
	b = append(b, `,"running":`...)
	b = strconv.AppendInt(b, int64(s.Running), 10)
	return append(b, "}\n"...)
}

// TestEncoderMatchesReference holds the encoder's last-text caches to the
// cache-free reference on streams whose floats repeat. A fixed stream
// walks the cases one by one; random ones draw T and V from small pools,
// so that most lines hit a cache, at lengths on and around the ends of the
// log's first eight chunks.
func TestEncoderMatchesReference(t *testing.T) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	ev := func(tm, v float64) emission { return emission{e: &Event{T: tm, Kind: KindBackfillHole, Job: 1, V: v}} }
	sample := func(tm float64) emission { return emission{s: &Sample{T: tm, FreeMB: 64}} }
	checkRenders(t, []emission{
		ev(10, 43200), ev(10, 0), ev(10, 43200), // a non-zero V repeats past a zero
		sample(10), // an event's T shared by the sample after it
		sample(10), ev(10, 1),
		ev(20, negZero), ev(20, 0), ev(20, negZero), // -0 is not the +0 fast path
		ev(20, inf), ev(20, inf), ev(20, -inf), ev(20, inf),
		ev(30, nan), ev(30, nan), ev(30, math.Float64frombits(0x7ff8000000000001)),
		ev(negZero, 0), ev(0, 0), sample(negZero), sample(nan), sample(nan), sample(inf),
		ev(-2.2250738585072014e-308, -2.2250738585072014e-308), // the longest text, 24 bytes
		ev(-2.2250738585072014e-308, math.SmallestNonzeroFloat64),
		ev(1e21, 1e21), ev(1e20, 0.1), ev(1e21, 0.1),
	})

	tPool := []float64{0, 1, 1.5, 300, 300.00000000000006, 86400.25, 1e21, negZero}
	vPool := []float64{0, 0, 0, negZero, inf, -inf, nan, 43200, 43200, 43200.5, 1.5e-7, -2.2250738585072014e-308}
	counts := []int{1, 2, 3, 100, 1000}
	for _, end := range chunkEnds(8) {
		counts = append(counts, end-1, end, end+1)
	}
	for i, n := range counts {
		rng := rand.New(rand.NewSource(int64(200 + i)))
		recs := make([]emission, n)
		tm := tPool[0]
		for k := range recs {
			if rng.Intn(3) == 0 {
				tm = tPool[rng.Intn(len(tPool))]
			}
			if rng.Intn(4) == 0 {
				recs[k] = sample(tm)
				continue
			}
			recs[k] = ev(tm, vPool[rng.Intn(len(vPool))])
		}
		checkRenders(t, recs)
	}
}

// TestLogCaptureDoesNotCopy bounds what recording n events allocates, the
// closing trim included: 64 bytes a record, plus at most one chunk of
// spare capacity, plus a small constant for the chunk list. A log that
// re-copies its records as it grows allocates several times n·64.
func TestLogCaptureDoesNotCopy(t *testing.T) {
	const n = 100_000
	const slack = 16 << 10
	if unsafe.Sizeof(logRecord{}) != 64 {
		t.Fatalf("logRecord is %d bytes; want 64", unsafe.Sizeof(logRecord{}))
	}
	l := &Log{}
	e := Event{Kind: KindLeaseGrant, Job: 1, Node: 2, Lender: 3, MB: 64}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		e.T = float64(i)
		_ = l.Event(&e)
	}
	_ = l.Close()
	runtime.ReadMemStats(&after)
	limit := uint64((n+maxChunk)*64 + slack)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("recording %d events allocated %d bytes; want at most %d", n, got, limit)
	}
}

// TestLogCloseTrimsLastChunk checks that a closed log holds no spare
// capacity: every chunk before the last is full, and Close trims the last.
func TestLogCloseTrimsLastChunk(t *testing.T) {
	counts := []int{1, 3*maxChunk + 7}
	for _, end := range chunkEnds(8) {
		counts = append(counts, end-1, end, end+1)
	}
	for _, n := range counts {
		l := &Log{}
		for i := 0; i < n; i++ {
			_ = l.Sample(&Sample{T: float64(i)})
		}
		_ = l.Close()
		total := 0
		for k, c := range l.chunks {
			if len(c) != cap(c) {
				t.Fatalf("%d records: chunk %d of %d has len %d, cap %d", n, k, len(l.chunks), len(c), cap(c))
			}
			total += len(c)
		}
		if total != n {
			t.Fatalf("%d records: chunks hold %d", n, total)
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
