package server

import (
	"context"
	"io"
	"strconv"
	"sync"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/telemetry"
)

// run executes one admitted scenario to completion and publishes its
// outcome. It is the single writer of its entry and runs under the entry's
// context — not any one request's — so it survives its initiating client
// as long as anyone still waits, and aborts promptly once nobody does.
//
// runFn is swapped by lifecycle tests to stand in a controllable
// computation; production code always goes through execute.
func (s *Server) run(e *entry, spec *experiments.ScenarioSpec) {
	start := time.Now()
	result, tel, err := s.runFn(e.ctx, e.id, spec) //dmplint:ignore ctxflow e.ctx is the entry's own lifecycle context, cancelled when the last waiter leaves — the intended context here, not a dropped request one
	s.observeRun(time.Since(start), err)
	s.store.complete(e, result, tel, err)
}

// execute is the production runFn: admission, simulation, rendering.
// Admission is taken here rather than in the handler so that joining an
// in-flight or cached scenario never consumes a slot — single-flight
// collapsing is what lets 64 identical requests cost one run.
//
// The sweep runs a private copy of spec carrying the telemetry factory:
// the caller's spec is the one the cache entry keeps for the branch
// endpoint, and it must not pin the capture.
func (s *Server) execute(ctx context.Context, id string, spec *experiments.ScenarioSpec) (result []byte, tel []cellLog, err error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.adm.release()
	cap := &telemetryCapture{interval: s.cfg.TelemetryInterval}
	run := *spec
	run.Telemetry = cap.factory
	res, err := s.cfg.Preset.RunScenarioSpecCtx(ctx, &run)
	if err != nil {
		return nil, nil, err
	}
	return RenderResult(id, s.cfg.Preset.Name, res), cap.cells(res), nil
}

// runBranch executes one admitted branch request to completion, mirroring
// run: entry context, single writer, metrics. Branch entries cache their
// rendering but carry no telemetry stream (the branch rows already report
// the fork economics).
func (s *Server) runBranch(e *entry, spec *experiments.ScenarioSpec, br *experiments.BranchSpec) {
	start := time.Now()
	result, err := s.branchFn(e.ctx, e.id, spec, br) //dmplint:ignore ctxflow e.ctx is the entry's own lifecycle context, cancelled when the last waiter leaves — the intended context here, not a dropped request one
	s.observeRun(time.Since(start), err)
	s.store.complete(e, result, nil, err)
}

// executeBranch is the production branchFn: the same admission gate as a
// scenario (the prefix re-simulation plus its concurrent branch suffixes
// are one run's worth of load), then RunBranchSpec and a deterministic
// rendering.
func (s *Server) executeBranch(ctx context.Context, id string, spec *experiments.ScenarioSpec, br *experiments.BranchSpec) ([]byte, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	res, err := s.cfg.Preset.RunBranchSpec(ctx, spec, br)
	if err != nil {
		return nil, err
	}
	return RenderBranchResult(id, s.cfg.Preset.Name, res), nil
}

// cellKey names one sweep cell.
type cellKey struct {
	memPct int
	policy string
}

// cellLog is one sweep cell's captured telemetry, kept compact until a GET
// renders it (writeTelemetry).
type cellLog struct {
	cellKey
	log *telemetry.Log
}

// telemetryCapture collects one telemetry.Log per sweep cell. Cells run on
// parallel sweep workers, so the factory hands each its own log (the map
// is the only shared state); cells lists them in result-row order after
// the sweep returns. Per-cell logs are deterministic and the row order is
// fixed, so the rendered stream is too.
type telemetryCapture struct {
	interval float64
	mu       sync.Mutex
	logs     map[cellKey]*telemetry.Log //dmp:guardedby(mu)
}

func (c *telemetryCapture) factory(memPct int, pol string) *telemetry.Recorder {
	l := &telemetry.Log{}
	c.mu.Lock()
	if c.logs == nil {
		c.logs = make(map[cellKey]*telemetry.Log)
	}
	c.logs[cellKey{memPct, pol}] = l
	c.mu.Unlock()
	return telemetry.New(telemetry.Options{Sink: l, SampleInterval: c.interval})
}

// cells returns the captured logs in result-row order. Called after every
// recorder is closed (RunScenarioSpecCtx closes them before returning), so
// the logs are complete and immutable. A cell that never started has a
// nil log and renders as its header alone.
func (c *telemetryCapture) cells(res *experiments.ScenarioResult) []cellLog {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cellLog, len(res.Rows))
	for i, row := range res.Rows {
		k := cellKey{row.MemPct, row.Policy}
		out[i] = cellLog{cellKey: k, log: c.logs[k]}
	}
	return out
}

// writeTelemetry streams a scenario's telemetry: for each cell, a header
// line then that cell's events and samples rendered from its log. It stops
// at the first failed write (the client has gone).
func writeTelemetry(w io.Writer, cells []cellLog) error {
	var hdr []byte
	for _, c := range cells {
		hdr = append(hdr[:0], `{"cell":{"mem_pct":`...)
		hdr = strconv.AppendInt(hdr, int64(c.memPct), 10)
		hdr = append(hdr, `,"policy":`...)
		hdr = strconv.AppendQuote(hdr, c.policy)
		hdr = append(hdr, "}}\n"...)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		if c.log != nil {
			if err := c.log.WriteJSONL(w); err != nil {
				return err
			}
		}
	}
	return nil
}
