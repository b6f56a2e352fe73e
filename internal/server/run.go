package server

import (
	"context"
	"io"
	"strconv"
	"time"

	"dismem/internal/experiments"
)

// work is one request's computation: its rendered response and, for a
// scenario, the result rows whose telemetry logs the telemetry GET renders.
// A scenario POST and a branch POST differ only in the work they hand run.
type work func(ctx context.Context) (result []byte, rows []experiments.ScenarioRow, err error)

// run computes one started entry and publishes its outcome: the one body
// of every request the daemon computes. It is the single writer of its
// entry and runs under the entry's context — not any one request's — so it
// survives its initiating client as long as anyone still waits, and aborts
// promptly once nobody does.
//
// runFn is swapped by lifecycle tests to stand in a controllable
// computation; production code always goes through execute.
func (s *Server) run(e *entry, w work) {
	start := time.Now()
	result, rows, err := s.runFn(e.ctx, e.id, w) //dmplint:ignore ctxflow e.ctx is the entry's own lifecycle context, cancelled when the last waiter leaves — the intended context here, not a dropped request one
	s.observeRun(time.Since(start), err)
	s.store.complete(e, result, rows, err)
}

// execute is the production runFn: it takes a run slot, then does the
// work. Admission is taken here rather than in the handler so that joining
// an in-flight or cached entry never consumes a slot — single-flight
// collapsing is what lets 64 identical requests cost one run. A branch
// takes the same gate as a scenario: its prefix re-simulation plus its
// concurrent branch suffixes are one run's worth of load.
func (s *Server) execute(ctx context.Context, _ string, w work) ([]byte, []experiments.ScenarioRow, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.adm.release()
	return w(ctx)
}

// scenarioWork sweeps spec, capturing each cell's telemetry, and renders
// the result under id.
func (s *Server) scenarioWork(id string, spec *experiments.ScenarioSpec) work {
	return func(ctx context.Context) ([]byte, []experiments.ScenarioRow, error) {
		res, err := s.cfg.Preset.RunScenarioSpecCtx(ctx, spec, s.cfg.TelemetryInterval)
		if err != nil {
			return nil, nil, err
		}
		return RenderResult(id, s.cfg.Preset.Name, res), res.Rows, nil
	}
}

// branchWork runs br off the scenario spec's cell and renders the result
// under id. A branch keeps no telemetry: its rows already report the fork
// economics.
func (s *Server) branchWork(id string, spec *experiments.ScenarioSpec, br *experiments.BranchSpec) work {
	return func(ctx context.Context) ([]byte, []experiments.ScenarioRow, error) {
		res, err := s.cfg.Preset.RunBranchSpec(ctx, spec, br)
		if err != nil {
			return nil, nil, err
		}
		return RenderBranchResult(id, s.cfg.Preset.Name, res), nil, nil
	}
}

// writeTelemetry streams a scenario's telemetry: for each result row, a
// cell header line then that cell's events and samples rendered from its
// log. Per-cell logs are deterministic and the row order is fixed, so the
// stream is too. It stops at the first failed write (the client has gone).
func writeTelemetry(w io.Writer, rows []experiments.ScenarioRow) error {
	var hdr []byte
	for _, row := range rows {
		hdr = append(hdr[:0], `{"cell":{"mem_pct":`...)
		hdr = strconv.AppendInt(hdr, int64(row.MemPct), 10)
		hdr = append(hdr, `,"policy":`...)
		hdr = strconv.AppendQuote(hdr, row.Policy)
		hdr = append(hdr, "}}\n"...)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		if err := row.Telemetry.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}
