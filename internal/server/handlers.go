package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dismem/internal/experiments"
	"dismem/internal/tracegen"
)

// maxSpecBytes bounds a POSTed spec document. Specs are small JSON
// objects; a megabyte is three orders of magnitude of headroom.
const maxSpecBytes = 1 << 20

// handleSubmit is POST /v1/scenarios: validate, content-address, join the
// single-flight entry for the key, and block until the result (or this
// client's disconnect). Identical concurrent requests collapse onto one
// computation and receive one byte-identical rendering.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := experiments.LoadScenario(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.cfg.Preset.ScenarioKey(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, id, spec, func() work { return s.scenarioWork(id, spec) })
}

// handleBranch is POST /v1/scenarios/{id}/branch: fork a completed
// scenario's selected cell at a branch point and run what-if variants off
// the shared prefix. The branch result is content-addressed like a
// scenario — its key folds the parent's key with every branch dimension —
// so identical concurrent branch requests collapse onto one prefix
// re-simulation and the rendering caches in the same LRU (a branch id also
// answers plain GET /v1/scenarios/{id}). The parent must have completed:
// branching needs its retained spec, and an in-flight parent answers 202
// exactly as a GET peek does.
func (s *Server) handleBranch(w http.ResponseWriter, r *http.Request) {
	br, err := experiments.LoadBranchSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := r.PathValue("id")
	parent := s.completedScenario(w, id)
	if parent == nil {
		return
	}
	if err := br.ValidateFor(parent.spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bid := experiments.BranchKey(id, br)
	s.submit(w, r, bid, nil, func() work { return s.branchWork(bid, parent.spec, br) })
}

// submit joins the single-flight entry for id and blocks until its outcome
// (or this client's disconnect) — the shared step of both POST handlers.
// The request that starts the entry retains spec on it for the branch
// endpoint (nil for a branch), counts the start, and hands run the work
// that build makes; a request that joins builds nothing.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, id string, spec *experiments.ScenarioSpec, build func() work) {
	e, started := s.store.join(s.base, id) //dmplint:ignore ctxflow deliberate: a run outlives any one request; join refcounts waiters and derives per-entry cancellation from the daemon context
	if started {
		e.spec = spec
		s.metricsMu.Lock()
		s.started++
		s.metricsMu.Unlock()
		go s.run(e, build())
	}
	select {
	case <-e.done:
	case <-r.Context().Done():
		// Client gone: drop our reference. If we were the last interested
		// party the run is cancelled and its slot freed; the response
		// writer is dead either way.
		s.store.leave(e)
		return
	}
	if e.err != nil {
		writeRunError(w, e.err)
		return
	}
	writeResult(w, e.result)
}

// completedScenario looks up id for an endpoint that needs a completed
// scenario: the branch POST and the telemetry GET. When id names none, it
// answers for the endpoint — 404 unknown, 202 still running, 409 a branch
// result — and returns nil.
func (s *Server) completedScenario(w http.ResponseWriter, id string) *entry {
	e, known, done := s.store.peek(id)
	switch {
	case !known:
		writeError(w, http.StatusNotFound, errors.New("server: unknown scenario id"))
	case !done:
		writeRunning(w)
	case e.spec == nil:
		writeError(w, http.StatusConflict, errors.New("server: id names a branch result, not a scenario"))
	default:
		return e
	}
	return nil
}

// handleGet is GET /v1/scenarios/{id}: a non-blocking peek. Unknown keys
// 404, in-flight runs 202, completed runs return the cached rendering.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, known, done := s.store.peek(r.PathValue("id"))
	switch {
	case !known:
		writeError(w, http.StatusNotFound, errors.New("server: unknown scenario id"))
	case !done:
		writeRunning(w)
	default:
		writeResult(w, e.result)
	}
}

// handleTelemetry is GET /v1/scenarios/{id}/telemetry: the run's captured
// event stream as JSONL, one cell-header line per sweep cell followed by
// that cell's events. Deterministic for a given scenario key. The stream
// is rendered from the cached per-cell logs as it is written, so its
// length is not known up front and the response is chunked. A branch id
// has no stream and answers 409.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if e := s.completedScenario(w, r.PathValue("id")); e != nil {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = writeTelemetry(w, e.rows) // a failed write means the client has gone
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics exposes the service counters in Prometheus text format:
// admission state, both cache layers (the daemon's result cache and the
// shared trace cache underneath it), run counters, and the run-latency
// histogram via the telemetry package's exposition writer.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	queued, inFlight := s.adm.depth()
	entries, hits, misses := s.store.stats()
	tEntries, tHits, tMisses := tracegen.CacheStats()
	fmt.Fprintf(w,
		"# TYPE dmpd_queue_depth gauge\ndmpd_queue_depth %d\n"+
			"# TYPE dmpd_inflight gauge\ndmpd_inflight %d\n"+
			"# TYPE dmpd_result_cache_entries gauge\ndmpd_result_cache_entries %d\n"+
			"# TYPE dmpd_result_cache_hits_total counter\ndmpd_result_cache_hits_total %d\n"+
			"# TYPE dmpd_result_cache_misses_total counter\ndmpd_result_cache_misses_total %d\n"+
			"# TYPE dmpd_trace_cache_entries gauge\ndmpd_trace_cache_entries %d\n"+
			"# TYPE dmpd_trace_cache_hits_total counter\ndmpd_trace_cache_hits_total %d\n"+
			"# TYPE dmpd_trace_cache_misses_total counter\ndmpd_trace_cache_misses_total %d\n",
		queued, inFlight, entries, hits, misses, tEntries, tHits, tMisses)
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	fmt.Fprintf(w,
		"# TYPE dmpd_scenarios_started_total counter\ndmpd_scenarios_started_total %d\n"+
			"# TYPE dmpd_scenarios_completed_total counter\ndmpd_scenarios_completed_total %d\n"+
			"# TYPE dmpd_scenarios_failed_total counter\ndmpd_scenarios_failed_total %d\n",
		s.started, s.completed, s.failed)
	_ = s.runMS.WriteText(w, "dmpd_scenario_run_ms")
}

func writeResult(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func writeRunning(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write([]byte(`{"status":"running"}` + "\n"))
}

// writeRunError maps a failed run onto a status: admission overflow is the
// client's 429 (with a Retry-After hint), cancellation — only reachable
// when the daemon itself is shutting down, since a live waiter keeps its
// run alive — is 503, anything else 500.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server: run aborted: %w", err))
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := append(strconv.AppendQuote([]byte(`{"error":`), err.Error()), '}', '\n')
	_, _ = w.Write(body)
}
