// Command dmpd serves the simulator as a service: POST a ScenarioSpec
// JSON document to /v1/scenarios and receive the sweep result, computed on
// the shared pool behind admission control and a content-addressed
// single-flight cache. Responses are byte-identical to offline runs of the
// same spec at the same preset.
//
//	dmpd -addr :8080 -preset quick &
//	curl -s -XPOST localhost:8080/v1/scenarios -d @spec.json
//	curl -s localhost:8080/v1/scenarios/<id>/telemetry
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM begin a graceful shutdown: new connections stop, in-flight
// scenarios run to completion within -drain, and only then are survivors
// aborted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/server"
)

// Connection-level deadlines. A client gets readHeaderTimeout to send its
// request headers, so a slow or stalled sender cannot pin a connection
// forever, and an idle keep-alive connection is closed after idleTimeout.
// There is deliberately no ReadTimeout or WriteTimeout: a scenario response
// is written only when its sweep finishes, which can take minutes at the
// full preset, and the request's own context already bounds that wait.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(realMain())
}

// newHTTPServer builds the daemon's listener with the connection deadlines
// above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func realMain() (code int) {
	addr := flag.String("addr", ":8080", "listen address")
	preset := flag.String("preset", "quick", "simulation scale: quick|full|bench")
	inflight := flag.Int("max-inflight", 2, "concurrently executing scenarios")
	queue := flag.Int("max-queue", 8, "scenarios waiting for a slot before 429")
	cache := flag.Int("cache", 64, "completed results kept (LRU)")
	sample := flag.Float64("telemetry-interval", 0, "pool sampling period in simulated seconds (0 = events only)")
	drain := flag.Duration("drain", 2*time.Minute, "graceful-shutdown budget for in-flight scenarios")
	flag.Parse()

	var p experiments.Preset
	switch *preset {
	case "quick":
		p = experiments.Quick()
	case "full":
		p = experiments.Full()
	case "bench":
		p = experiments.Bench()
	default:
		fmt.Fprintf(os.Stderr, "dmpd: unknown preset %q (want quick, full, or bench)\n", *preset)
		return 2
	}

	srv := server.New(server.Config{
		Preset:            p,
		MaxInFlight:       *inflight,
		MaxQueue:          *queue,
		CacheEntries:      *cache,
		TelemetryInterval: *sample,
	})
	hs := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dmpd: preset %s listening on %s\n", p.Name, *addr)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "dmpd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: let in-flight handlers (and the runs they wait on) finish,
	// then abort whatever is left so Shutdown can return.
	fmt.Fprintln(os.Stderr, "dmpd: shutting down, draining in-flight scenarios")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sctx.Done()
		srv.Abort()
	}()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "dmpd: shutdown: %v\n", err)
		return 1
	}
	return 0
}
