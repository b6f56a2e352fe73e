// Package server is dmpd's engine room: simulation-as-a-service over the
// experiments layer. It accepts ScenarioSpec documents, admits them through
// a bounded queue, executes them on the shared sweep pool, and serves the
// results and their telemetry streams over HTTP.
//
// The design contract is that the service boundary adds no nondeterminism:
// a scenario's response body is rendered by the same fixed-field-order
// encoder an offline caller gets from RenderResult, so the daemon's answer
// for a spec is byte-identical to dmpsim/dmpexp computing it locally. That
// makes results content-addressable — the scenario's canonical SHA-256 key
// (experiments.ScenarioKey) is both the resource ID and the cache key — and
// single-flight collapsing safe: any number of concurrent identical
// requests can share one computation and one byte answer.
//
// Unlike every package under the simulation path, server code may read the
// wall clock: request latencies and Retry-After hints are operational
// concerns, invisible to simulation results. The detclock lint guard keeps
// the boundary honest in the other direction.
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/telemetry"
)

// Config parameterises the daemon.
type Config struct {
	// Preset sets the scale every scenario runs at (experiments.Quick is a
	// sensible service default; tests use Bench).
	Preset experiments.Preset
	// MaxInFlight bounds concurrently executing scenarios. Each scenario
	// fans its sweep cells onto the shared pool, so this is the service's
	// load knob. Default 2.
	MaxInFlight int
	// MaxQueue bounds scenarios admitted but waiting for a run slot;
	// beyond it, POST returns 429 with a Retry-After hint. Default 8.
	MaxQueue int
	// CacheEntries bounds the completed-result cache (LRU evicted).
	// Default 64.
	CacheEntries int
	// TelemetryInterval is the pool-sampling period (simulated seconds)
	// for captured telemetry streams; 0 records the event stream only.
	TelemetryInterval float64
}

func (c *Config) normalize() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
}

// Server is the daemon state: admission control, the single-flight result
// cache, and service metrics. Construct with New, mount Handler, and call
// Abort during shutdown once http.Server.Shutdown's drain deadline passes.
type Server struct {
	cfg   Config
	adm   *admission
	store *store

	base   context.Context // parent of every run; Abort cancels it
	cancel context.CancelFunc

	// runFn takes a run slot and does one request's work, for both request
	// kinds; New wires it to (*Server).execute. Lifecycle tests substitute
	// a controllable stand-in.
	runFn func(ctx context.Context, id string, w work) (result []byte, rows []experiments.ScenarioRow, err error)

	metricsMu sync.Mutex
	runMS     *telemetry.Histogram //dmp:guardedby(metricsMu) scenario wall time, milliseconds
	started   uint64               //dmp:guardedby(metricsMu)
	completed uint64               //dmp:guardedby(metricsMu)
	failed    uint64               //dmp:guardedby(metricsMu)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.normalize()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		base:   base,
		cancel: cancel,
		runMS:  telemetry.NewHistogram([]int64{1, 10, 100, 1000, 10000, 60000}),
	}
	s.store = newStore(cfg.CacheEntries)
	s.runFn = s.execute
	return s
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", s.handleSubmit)
	mux.HandleFunc("POST /v1/scenarios/{id}/branch", s.handleBranch)
	mux.HandleFunc("GET /v1/scenarios/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/scenarios/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Abort cancels every in-flight run. Graceful shutdown calls it only after
// http.Server.Shutdown's drain deadline expires: Shutdown itself lets
// handlers — and therefore the runs they wait on — finish.
func (s *Server) Abort() { s.cancel() }

// observeRun files one finished scenario into the service metrics.
func (s *Server) observeRun(d time.Duration, err error) {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	s.runMS.Observe(d.Milliseconds())
	if err != nil {
		s.failed++
	} else {
		s.completed++
	}
}
