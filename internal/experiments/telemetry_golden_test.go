package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

// goldenTelemetryDigest is the SHA-256 of the JSONL event log produced by
// the Bench-preset dynamic-policy scenario below. It locks the telemetry
// determinism guarantee end to end: same seed and parameters ⇒ byte-identical
// event log — through the trace generator, the simulator's emission points,
// and the hand-rolled JSONL encoder. A digest change means event content,
// ordering, or encoding changed; that is an intentional format change or a
// bug, never drift. It was re-recorded once, deliberately, when progress
// banking became lazy: the times of three completions (their job_end and
// lease_revoke lines) moved in their last bits. It was re-recorded again when
// synthetic traces began reading one shape library mined from a fixed Borg
// cell: the trace itself changed.
//
// To regenerate after an intentional change, run the test and copy the
// "got" digest it prints on failure.
const goldenTelemetryDigest = "1602a03c595846514cc2e6f42c62927e823b8948c371310b62d31a3c9435dfd8"

func benchTelemetryLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	benchTelemetryRun(t, telemetry.NewJSONL(&buf))
	return buf.Bytes()
}

// benchTelemetryRun runs the Bench-preset dynamic-policy scenario with
// telemetry flowing into sink, sampling every 300 simulated seconds.
func benchTelemetryRun(t *testing.T, sink telemetry.Sink) {
	t.Helper()
	p := Bench()
	tr, err := p.SyntheticTrace(0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MemConfigByPct(62)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Options{
		Sink:           sink,
		SampleInterval: 300,
	})
	cfg := p.ConfigFor(p.SystemNodes, mc, policy.Dynamic)
	cfg.Telemetry = rec
	if _, err := simulate(cfg, tr.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenTelemetryEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("golden telemetry digest skipped in -short mode")
	}
	a := benchTelemetryLog(t)
	if len(a) == 0 {
		t.Fatal("empty event log")
	}
	sum := sha256.Sum256(a)
	if got := hex.EncodeToString(sum[:]); got != goldenTelemetryDigest {
		t.Errorf("telemetry event log digest changed:\n got %s\nwant %s", got, goldenTelemetryDigest)
	}
	// Two in-process runs must agree byte for byte as well — this holds
	// even when the digest above is being intentionally regenerated.
	b := benchTelemetryLog(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and parameters produced different event logs")
	}
	// And the log must round-trip through the reader byte for byte: events
	// and samples come back in the order the lines hold them.
	log, err := telemetry.ReadLog(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := log.WriteJSONL(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), a) {
		t.Fatalf("the log read back renders %d bytes that differ from the %d it was read from", back.Len(), len(a))
	}
}

// TestGoldenTelemetryLogRender captures the same run into a compact
// telemetry.Log and renders it: the bytes must hash to the JSONL sink's
// golden digest, since the daemon serves its telemetry this way.
func TestGoldenTelemetryLogRender(t *testing.T) {
	if testing.Short() {
		t.Skip("golden telemetry digest skipped in -short mode")
	}
	l := &telemetry.Log{}
	benchTelemetryRun(t, l)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenTelemetryDigest {
		t.Errorf("rendered Log digest differs from the JSONL golden:\n got %s\nwant %s", got, goldenTelemetryDigest)
	}
}
