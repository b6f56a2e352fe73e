package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dismem/internal/core"
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
// lease_revoke lines) moved in their last bits.
//
// To regenerate after an intentional change, run the test and copy the
// "got" digest it prints on failure.
const goldenTelemetryDigest = "7ba5c0d5f85772fd962b6e15b65a64c8e3ca4e858da3f08f7e28b8cbd870b302"

func benchTelemetryLog(t *testing.T) []byte {
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
	var buf bytes.Buffer
	rec := telemetry.New(telemetry.Options{
		Sink:           telemetry.NewJSONL(&buf),
		SampleInterval: 300,
	})
	if _, err := p.RunScenarioWith(tr.Jobs, p.SystemNodes, mc, policy.Dynamic,
		func(cfg *core.Config) { cfg.Telemetry = rec }); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	// And the log must round-trip through the reader.
	log, err := telemetry.ReadLog(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) == 0 || log.Series.Len() == 0 {
		t.Fatalf("decoded log empty: %d events, %d samples", len(log.Events), log.Series.Len())
	}
}
