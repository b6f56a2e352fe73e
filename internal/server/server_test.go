package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dismem/internal/experiments"
)

// benchSpec is the e2e scenario: two cells at Bench scale, small enough
// to run (with telemetry capture) in a unit-test budget.
const benchSpec = `{
  "name": "e2e",
  "mem_pcts": [100],
  "policies": ["static", "dynamic"]
}`

func loadSpec(t *testing.T, doc string) *experiments.ScenarioSpec {
	t.Helper()
	s, err := experiments.LoadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// doPost is goroutine-safe: it reports rather than fails.
func doPost(client *http.Client, url, doc string) (code int, body string, hdr http.Header, err error) {
	resp, err := client.Post(url+"/v1/scenarios", "application/json", strings.NewReader(doc))
	if err != nil {
		return 0, "", nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(b), resp.Header, err
}

func postSpec(t *testing.T, client *http.Client, url, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/scenarios", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSingleFlightDeterminism is the headline e2e contract: 64 concurrent
// identical POSTs execute exactly one simulation and all receive the same
// bytes — which are the bytes an offline run of the same spec renders.
func TestSingleFlightDeterminism(t *testing.T) {
	p := experiments.Bench()
	s := New(Config{Preset: p, MaxInFlight: 2, TelemetryInterval: 600})
	var runs atomic.Int32
	prod := s.runFn
	s.runFn = func(ctx context.Context, id string, spec *experiments.ScenarioSpec) ([]byte, []cellLog, error) {
		runs.Add(1)
		return prod(ctx, id, spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	bodies := make([]string, clients)
	codes := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _, errs[i] = doPost(ts.Client(), ts.URL, benchSpec)
		}(i)
	}
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("64 identical POSTs ran %d simulations, want 1", n)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d received different bytes", i)
		}
	}

	// The service boundary adds nothing: an offline run of the same spec
	// renders the identical document.
	spec := loadSpec(t, benchSpec)
	id, err := p.ScenarioKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunScenarioSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := RenderResult(id, p.Name, res)
	if bodies[0] != string(want) {
		t.Fatalf("daemon digest %x != offline digest %x",
			sha256.Sum256([]byte(bodies[0])), sha256.Sum256(want))
	}

	// The result is cached: GET serves the same bytes, telemetry streams
	// per-cell headers, and the cache counters saw 63 collapsed joins.
	resp, body := get(t, ts.URL+"/v1/scenarios/"+id)
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("GET: status %d, bytes match %v", resp.StatusCode, string(body) == string(want))
	}
	resp, tel := get(t, ts.URL+"/v1/scenarios/"+id+"/telemetry")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry status %d", resp.StatusCode)
	}
	for _, cell := range []string{`{"cell":{"mem_pct":100,"policy":"static"}}`, `{"cell":{"mem_pct":100,"policy":"dynamic"}}`} {
		if !strings.Contains(string(tel), cell) {
			t.Fatalf("telemetry stream missing header %s", cell)
		}
	}
	if !strings.Contains(string(tel), `"ev":"job_submit"`) {
		t.Fatal("telemetry stream has no events")
	}
	// GETs peek without joining, so the join counters are exactly the
	// POST fan-in: one run, 63 collapsed requests.
	if _, hits, misses := s.store.stats(); misses != 1 || hits != clients-1 {
		t.Fatalf("cache stats hits=%d misses=%d, want %d/1", hits, misses, clients-1)
	}

	resp, metrics := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"dmpd_result_cache_misses_total 1",
		"dmpd_scenarios_started_total 1",
		"dmpd_scenarios_completed_total 1",
		"dmpd_trace_cache_entries",
		"dmpd_scenario_run_ms_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// stubRun installs a controllable runFn that still goes through real
// admission: each run signals on started, then blocks until release is
// closed or its context is cancelled.
func stubRun(s *Server, started chan string, release chan struct{}) (cur, max *atomic.Int32) {
	cur, max = new(atomic.Int32), new(atomic.Int32)
	s.runFn = func(ctx context.Context, id string, _ *experiments.ScenarioSpec) ([]byte, []cellLog, error) {
		if err := s.adm.acquire(ctx); err != nil {
			return nil, nil, err
		}
		defer s.adm.release()
		if c := cur.Add(1); c > max.Load() {
			max.Store(c)
		}
		defer cur.Add(-1)
		if started != nil {
			started <- id
		}
		select {
		case <-release:
			return []byte(`{"id":"` + id + `"}` + "\n"), nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return cur, max
}

func namedSpec(name string) string {
	return fmt.Sprintf(`{"name": %q, "mem_pcts": [100], "policies": ["static"]}`, name)
}

// TestQueueOverflow fills the one run slot and the one queue seat, then
// proves the next distinct scenario bounces with 429 + Retry-After while
// the in-flight bound holds; releasing the gate completes the admitted
// pair.
func TestQueueOverflow(t *testing.T) {
	s := New(Config{Preset: experiments.Bench(), MaxInFlight: 1, MaxQueue: 1})
	started := make(chan string, 8)
	release := make(chan struct{})
	_, maxInFlight := stubRun(s, started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	results := make(chan result, 2)
	post := func(name string) {
		code, body, _, err := doPost(ts.Client(), ts.URL, namedSpec(name))
		if err != nil {
			t.Errorf("post %s: %v", name, err)
		}
		results <- result{code, body}
	}
	go post("a")
	<-started // a holds the slot
	go post("b")
	waitFor(t, "b to queue", func() bool { q, _ := s.adm.depth(); return q == 1 })

	resp, body := postSpec(t, ts.Client(), ts.URL, namedSpec("c"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	<-started // b gets the slot
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted scenario: status %d body %s", r.code, r.body)
		}
	}
	if m := maxInFlight.Load(); m != 1 {
		t.Fatalf("in-flight bound violated: saw %d concurrent runs", m)
	}
}

// TestClientCancelFreesSlot proves a disconnecting client aborts its
// (otherwise unwatched) run: the slot frees and a subsequent scenario runs.
func TestClientCancelFreesSlot(t *testing.T) {
	s := New(Config{Preset: experiments.Bench(), MaxInFlight: 1, MaxQueue: 1})
	started := make(chan string, 8)
	release := make(chan struct{})
	stubRun(s, started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/scenarios", strings.NewReader(namedSpec("doomed")))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started // the run holds the only slot
	cancel()  // client disconnects; nobody else wants the answer
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned without error")
	}
	waitFor(t, "slot to free", func() bool { _, f := s.adm.depth(); return f == 0 })

	// The freed slot admits new work immediately: with the gate now open,
	// a fresh scenario acquires the slot and completes.
	close(release)
	resp, body := postSpec(t, ts.Client(), ts.URL, namedSpec("next"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel scenario: status %d body %s", resp.StatusCode, body)
	}
	// The abandoned run was evicted, not cached: a retry starts fresh.
	if _, known, _ := s.store.peek(mustKey(t, s, "doomed")); known {
		t.Fatal("abandoned scenario still in store")
	}
}

func mustKey(t *testing.T, s *Server, name string) string {
	t.Helper()
	id, err := s.cfg.Preset.ScenarioKey(loadSpec(t, namedSpec(name)))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestGracefulShutdownDrains proves http.Server.Shutdown waits for an
// in-flight scenario: the client gets its full 200 even though shutdown
// began mid-run, and Shutdown returns clean.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Preset: experiments.Bench(), MaxInFlight: 1})
	started := make(chan string, 8)
	release := make(chan struct{})
	stubRun(s, started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	results := make(chan result, 1)
	go func() {
		code, body, _, err := doPost(ts.Client(), ts.URL, namedSpec("draining"))
		if err != nil {
			t.Errorf("post: %v", err)
		}
		results <- result{code, body}
	}()
	<-started

	shut := make(chan error, 1)
	go func() { shut <- ts.Config.Shutdown(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let Shutdown observe the active request
	close(release)

	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-results
	if r.code != http.StatusOK || !strings.Contains(r.body, `"id"`) {
		t.Fatalf("drained request: status %d body %s", r.code, r.body)
	}
}

// TestAbortAfterDrainDeadline is the forced half of shutdown: Abort
// cancels the base context and a stuck run surfaces as 503.
func TestAbortAfterDrainDeadline(t *testing.T) {
	s := New(Config{Preset: experiments.Bench(), MaxInFlight: 1})
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	stubRun(s, started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	results := make(chan int, 1)
	go func() {
		code, _, _, err := doPost(ts.Client(), ts.URL, namedSpec("stuck"))
		if err != nil {
			t.Errorf("post: %v", err)
		}
		results <- code
	}()
	<-started
	s.Abort()
	if code := <-results; code != http.StatusServiceUnavailable {
		t.Fatalf("aborted run: status %d, want 503", code)
	}
}

// TestValidationAndLookups covers the request-level error surface.
func TestValidationAndLookups(t *testing.T) {
	s := New(Config{Preset: experiments.Bench()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postSpec(t, ts.Client(), ts.URL, `{"policies": ["magic"]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "policies[0]") {
		t.Fatalf("bad spec: status %d body %s", resp.StatusCode, body)
	}
	resp, _ = postSpec(t, ts.Client(), ts.URL, ``)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/scenarios/deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/scenarios/deadbeef/telemetry")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown telemetry: status %d", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// A running scenario peeks as 202 on both GET endpoints.
	started := make(chan string, 1)
	release := make(chan struct{})
	stubRun(s, started, release)
	go doPost(ts.Client(), ts.URL, namedSpec("slow"))
	id := <-started
	resp, body = get(t, ts.URL+"/v1/scenarios/"+id)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), "running") {
		t.Fatalf("running peek: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/v1/scenarios/"+id+"/telemetry")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("running telemetry peek: %d", resp.StatusCode)
	}
	close(release)
}

// postBranch POSTs a branch document against a scenario id.
func postBranch(t *testing.T, client *http.Client, url, id, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/scenarios/"+id+"/branch", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestBranchEndpoint is the what-if e2e contract: a completed scenario's
// cached state branches under variant overlays, the response is
// byte-identical to an offline RunBranchSpec rendering, identical branch
// requests single-flight onto one computation, and the branch result joins
// the same cache (a branch id answers GET).
func TestBranchEndpoint(t *testing.T) {
	p := experiments.Bench()
	s := New(Config{Preset: p, MaxInFlight: 2})
	var branchRuns atomic.Int32
	prod := s.branchFn
	s.branchFn = func(ctx context.Context, id string, spec *experiments.ScenarioSpec, br *experiments.BranchSpec) ([]byte, error) {
		branchRuns.Add(1)
		return prod(ctx, id, spec, br)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const scenarioDoc = `{"name":"branchable","mem_pcts":[100],"policies":["dynamic"]}`
	resp, body := postSpec(t, ts.Client(), ts.URL, scenarioDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario: status %d body %s", resp.StatusCode, body)
	}
	spec := loadSpec(t, scenarioDoc)
	id, err := p.ScenarioKey(spec)
	if err != nil {
		t.Fatal(err)
	}

	const branchDoc = `{"mem_pct":100,"policy":"dynamic","at_time_s":3600,
		"variants":[{"name":"noop"},{"name":"swap","policy":"static"},{"name":"repack","repack":true}]}`
	codes := make([]int, 8)
	bodies := make([]string, 8)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/scenarios/"+id+"/branch",
				"application/json", strings.NewReader(branchDoc))
			if err != nil {
				t.Errorf("branch %d: %v", i, err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			codes[i], bodies[i] = resp.StatusCode, string(b)
		}(i)
	}
	wg.Wait()
	if n := branchRuns.Load(); n != 1 {
		t.Fatalf("8 identical branch POSTs ran %d computations, want 1", n)
	}
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("branch %d: status %d body %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("branch %d received different bytes", i)
		}
	}

	// The service boundary adds nothing: the offline branch run renders the
	// identical document.
	br, err := experiments.LoadBranchSpec(strings.NewReader(branchDoc))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := p.RunBranchSpec(context.Background(), spec, br)
	if err != nil {
		t.Fatal(err)
	}
	bid := experiments.BranchKey(id, br)
	if want := RenderBranchResult(bid, p.Name, bres); bodies[0] != string(want) {
		t.Fatalf("daemon branch bytes != offline rendering\ndaemon:  %s\noffline: %s", bodies[0], want)
	}
	for _, frag := range []string{`"name":"base"`, `"name":"noop"`, `"name":"swap"`, `"name":"repack"`, `"shared_events":`} {
		if !strings.Contains(bodies[0], frag) {
			t.Fatalf("branch response missing %s: %s", frag, bodies[0])
		}
	}

	// The branch result is cached under its own content address.
	resp, cached := get(t, ts.URL+"/v1/scenarios/"+bid)
	if resp.StatusCode != http.StatusOK || string(cached) != bodies[0] {
		t.Fatalf("cached branch GET: status %d, bytes match %v", resp.StatusCode, string(cached) == bodies[0])
	}
}

// TestBranchErrors covers the branch endpoint's error surface.
func TestBranchErrors(t *testing.T) {
	p := experiments.Bench()
	s := New(Config{Preset: p})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const okBranch = `{"mem_pct":100,"policy":"dynamic","variants":[{"name":"noop"}]}`
	resp, _ := postBranch(t, ts.Client(), ts.URL, "deadbeef", okBranch)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d", resp.StatusCode)
	}

	const scenarioDoc = `{"name":"parent","mem_pcts":[100],"policies":["dynamic"]}`
	if resp, body := postSpec(t, ts.Client(), ts.URL, scenarioDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario: status %d body %s", resp.StatusCode, body)
	}
	id := func() string {
		k, err := p.ScenarioKey(loadSpec(t, scenarioDoc))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()

	for name, tc := range map[string]struct {
		doc  string
		code int
	}{
		"malformed":    {`{"mem_pct":`, http.StatusBadRequest},
		"unknown-knob": {`{"mem_pct":100,"policy":"dynamic","warp":9,"variants":[{"name":"a"}]}`, http.StatusBadRequest},
		"no-variants":  {`{"mem_pct":100,"policy":"dynamic"}`, http.StatusBadRequest},
		"foreign-cell": {`{"mem_pct":50,"policy":"dynamic","variants":[{"name":"a"}]}`, http.StatusBadRequest},
		"foreign-pol":  {`{"mem_pct":100,"policy":"static","variants":[{"name":"a"}]}`, http.StatusBadRequest},
	} {
		if resp, body := postBranch(t, ts.Client(), ts.URL, id, tc.doc); resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d body %s, want %d", name, resp.StatusCode, body, tc.code)
		}
	}

	// Branching a branch result is refused.
	resp, body := postBranch(t, ts.Client(), ts.URL, id, okBranch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("branch: status %d body %s", resp.StatusCode, body)
	}
	br, err := experiments.LoadBranchSpec(strings.NewReader(okBranch))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = postBranch(t, ts.Client(), ts.URL, experiments.BranchKey(id, br), okBranch)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("branch-of-branch: status %d, want 409", resp.StatusCode)
	}

	// An in-flight parent answers 202, like a GET peek.
	started := make(chan string, 1)
	release := make(chan struct{})
	stubRun(s, started, release)
	go doPost(ts.Client(), ts.URL, namedSpec("inflight"))
	slowID := <-started
	resp, _ = postBranch(t, ts.Client(), ts.URL, slowID, okBranch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-flight parent: status %d, want 202", resp.StatusCode)
	}
	close(release)
}

// TestStoreLRUEviction bounds the result cache: completing a third entry
// under cap 2 evicts the least recently used.
func TestStoreLRUEviction(t *testing.T) {
	st := newStore(2)
	base := context.Background()
	complete := func(id string) *entry {
		e, started := st.join(base, id)
		if !started {
			t.Fatalf("join(%s) did not start", id)
		}
		st.complete(e, []byte(id), nil, nil)
		return e
	}
	complete("a")
	complete("b")
	if _, known, done := st.peek("a"); !known || !done {
		t.Fatal("a missing before eviction")
	} // also freshens a
	complete("c")
	if _, known, _ := st.peek("b"); known {
		t.Fatal("b not evicted (a was freshened)")
	}
	if _, known, _ := st.peek("a"); !known {
		t.Fatal("a evicted despite freshening")
	}
	if entries, _, _ := st.stats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	// A cached hit serves without starting a run.
	e, started := st.join(base, "c")
	if started || string(e.result) != "c" {
		t.Fatalf("cached join: started=%v result=%q", started, e.result)
	}
}
