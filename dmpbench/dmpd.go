package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/server"
)

// dmpdScale sizes the dmpd-study workload; tests shrink it.
type dmpdScale struct {
	preset func() experiments.Preset
	// warm is the number of studies each set-up replays before the timed
	// window; the first of them is the discarded warm-up operation, and
	// together they fill the daemon's result cache so the window runs in
	// the cache-full steady state.
	warm   int
	setups int
	// checkEvery selects every n-th timed study for the offline
	// byte-identity check.
	checkEvery int
}

var dmpdFull = dmpdScale{preset: experiments.Quick, warm: 34, setups: 3, checkEvery: 10}

// studyMemPcts and the branch below fix the shape of every study; only the
// trace varies between studies.
var studyMemPcts = []int{50, 62, 75, 100}

const branchDoc = `{"mem_pct":62,"policy":"dynamic","at_time_s":43200,"variants":[` +
	`{"name":"static","policy":"static"},` +
	`{"name":"conservative","backfill":"conservative"},` +
	`{"name":"repack","repack":true}]}`

// studySpec is study i of set-up rep (rep < 0 for the timed window): a
// fresh trace, so every study's first POST is a cold sweep.
func studySpec(seed int64, rep, i int) *experiments.ScenarioSpec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rep+1)*100_003 + int64(i)))
	s := &experiments.ScenarioSpec{
		Name:     fmt.Sprintf("study-%d-%d-%d", seed, rep, i),
		MemPcts:  studyMemPcts,
		Policies: []string{"static", "dynamic"},
	}
	s.Trace.LargeFrac = 0.1 + 0.3*rng.Float64()
	s.Trace.Overestimation = 0.2 + 0.6*rng.Float64()
	s.Trace.Seed = rng.Int63n(1<<40) + 1
	return s
}

// dmpdClient is one closed-loop client of an in-process daemon.
type dmpdClient struct {
	ts  *httptest.Server
	c   *http.Client
	srv *server.Server
}

func newDmpdClient(p experiments.Preset) *dmpdClient {
	srv := server.New(server.Config{Preset: p})
	ts := httptest.NewServer(srv.Handler())
	return &dmpdClient{ts: ts, c: ts.Client(), srv: srv}
}

func (d *dmpdClient) close() {
	d.ts.Close()
	d.srv.Abort()
}

// do sends one request and returns the status, the body and the latency.
func (d *dmpdClient) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := d.c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(t0), err
}

// study is what one study measured and returned.
type study struct {
	spec     *experiments.ScenarioSpec
	cold     []byte
	coldD    time.Duration
	hitD     []time.Duration
	branchD  time.Duration
	telD     time.Duration
	telBytes int
	branch   branchBody
}

type branchBody struct {
	Rows []struct {
		SharedEvents uint64 `json:"shared_events"`
		NodeCopies   int64  `json:"cow_node_copies"`
		ShardThaws   int64  `json:"cow_shard_thaws"`
	} `json:"rows"`
}

type scenarioBody struct {
	ID   string            `json:"id"`
	Rows []json.RawMessage `json:"rows"`
}

// runStudy performs one study's seven requests, checking each response:
// a cold POST, three re-POSTs that must return the same bytes, a what-if
// branch POST and its re-POST (same bytes again), and the telemetry GET.
// Every request is one operation; a non-2xx status or a failed check fails
// it. op numbers the study for the test hook.
func (r *run) runStudy(d *dmpdClient, spec *experiments.ScenarioSpec, op int) (study, error) {
	st := study{spec: spec}
	doc, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	code, body, dur, err := d.do("POST", "/v1/scenarios", doc)
	if err != nil {
		return st, err
	}
	r.maybeTamper(op, &body)
	st.cold, st.coldD = body, dur
	var sb scenarioBody
	ok := code == http.StatusOK || r.fail("study %d: cold POST status %d: %s", op, code, body)
	if ok {
		if err := json.Unmarshal(body, &sb); err != nil || sb.ID == "" {
			ok = r.fail("study %d: cold POST body unreadable: %v", op, err)
		} else if len(sb.Rows) != len(studyMemPcts)*2 {
			ok = r.fail("study %d: %d rows, want %d", op, len(sb.Rows), len(studyMemPcts)*2)
		}
	}
	r.op(ok)
	if !ok {
		return st, nil
	}
	for k := 0; k < 3; k++ {
		code, hit, dur, err := d.do("POST", "/v1/scenarios", doc)
		if err != nil {
			return st, err
		}
		st.hitD = append(st.hitD, dur)
		r.op((code == http.StatusOK || r.fail("study %d: re-POST status %d", op, code)) &&
			(bytes.Equal(hit, body) || r.fail("study %d: re-POST %d returned different bytes", op, k)))
	}
	code, br, dur, err := d.do("POST", "/v1/scenarios/"+sb.ID+"/branch", []byte(branchDoc))
	if err != nil {
		return st, err
	}
	st.branchD = dur
	ok = code == http.StatusOK || r.fail("study %d: branch POST status %d: %s", op, code, br)
	if ok {
		if err := json.Unmarshal(br, &st.branch); err != nil || len(st.branch.Rows) != 4 {
			ok = r.fail("study %d: branch body has %d rows (%v), want base + 3 variants", op, len(st.branch.Rows), err)
		}
	}
	r.op(ok)
	code, br2, _, err := d.do("POST", "/v1/scenarios/"+sb.ID+"/branch", []byte(branchDoc))
	if err != nil {
		return st, err
	}
	r.op((code == http.StatusOK || r.fail("study %d: branch re-POST status %d", op, code)) &&
		(bytes.Equal(br2, br) || r.fail("study %d: branch re-POST returned different bytes", op)))
	code, tel, dur, err := d.do("GET", "/v1/scenarios/"+sb.ID+"/telemetry", nil)
	if err != nil {
		return st, err
	}
	st.telD, st.telBytes = dur, len(tel)
	cells := bytes.Count(tel, []byte(`{"cell":`))
	r.op((code == http.StatusOK || r.fail("study %d: telemetry GET status %d", op, code)) &&
		(bytes.HasPrefix(tel, []byte(`{"cell":`)) && cells == len(sb.Rows) ||
			r.fail("study %d: telemetry stream has %d cell headers, want %d", op, cells, len(sb.Rows))))
	return st, nil
}

// dmpdStudy drives one closed-loop client against an in-process daemon at
// the Quick preset and the default server configuration.
func dmpdStudy(r *run, sc dmpdScale) error {
	p := sc.preset()
	var d *dmpdClient
	rep := 0
	setupS, err := r.setups(sc.setups, func() error {
		if d != nil {
			d.close()
		}
		d = newDmpdClient(p)
		for i := 0; i < sc.warm; i++ {
			if _, err := r.runStudy(d, studySpec(r.seed, rep, i), -1); err != nil {
				return err
			}
		}
		rep++
		return nil
	})
	if d != nil {
		defer d.close()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dmpd-study: preset %s, %d warm-up studies per set-up, set-up %.2fs\n", p.Name, sc.warm, setupS)
	// The live heap is read at the end of set-up, with the cache full after
	// a fixed number of studies: at the end of the window it would grow
	// with the number of studies the window completed (each fresh trace
	// stays in the process-wide trace cache).
	live := liveMB()

	before, err := scrape(d)
	if err != nil {
		return err
	}
	var (
		cold, tracedCold, hit, branch, telGet, telKB []float64
		studies                                      []study
		shared, copies, thaws, branchRows            float64
		traced                                       int
	)
	prof := newProfiler()
	n, elapsed, err := r.loop(func(i int) error {
		tr := r.trace && i%2 == 1
		if tr {
			if err := prof.start(); err != nil {
				return err
			}
		}
		st, err := r.runStudy(d, studySpec(r.seed, -1, i), i)
		if tr {
			if err := prof.stop(); err != nil {
				return err
			}
			traced++
		}
		if err != nil {
			return err
		}
		if tr {
			tracedCold = append(tracedCold, ms(st.coldD))
		} else {
			cold = append(cold, ms(st.coldD))
			for _, h := range st.hitD {
				hit = append(hit, ms(h))
			}
			branch = append(branch, ms(st.branchD))
			telGet = append(telGet, ms(st.telD))
		}
		telKB = append(telKB, float64(st.telBytes)/1024)
		for _, row := range st.branch.Rows {
			shared += float64(row.SharedEvents)
			copies += float64(row.NodeCopies)
			thaws += float64(row.ShardThaws)
			branchRows++
		}
		if sc.checkEvery > 0 && i%sc.checkEvery == 0 {
			studies = append(studies, st)
		}
		if i == 0 {
			sum := sha256.Sum256(st.cold)
			r.digest = hex.EncodeToString(sum[:])
		}
		return nil
	})
	if err != nil {
		return err
	}
	after, err := scrape(d)
	if err != nil {
		return err
	}

	if r.trace {
		per := func(k string) float64 { return (after[k] - before[k]) / float64(n) }
		r.set("server.hit_ms", median(hit), "ms")
		r.set("server.branch_ms", median(branch), "ms")
		r.set("server.telemetry_get_ms", median(telGet), "ms")
		r.set("server.telemetry_kb", median(telKB), "KiB")
		r.set("server.result_cache_hits", per("dmpd_result_cache_hits_total"), "1/study")
		r.set("server.result_cache_misses", per("dmpd_result_cache_misses_total"), "1/study")
		r.set("tracegen.cache_hits", per("dmpd_trace_cache_hits_total"), "1/study")
		r.set("tracegen.cache_misses", per("dmpd_trace_cache_misses_total"), "1/study")
		if branchRows > 0 {
			r.set("core.shared_events", shared/branchRows, "1/row")
			r.set("cluster.cow_node_copies", copies/branchRows, "1/row")
			r.set("cluster.cow_shard_thaws", thaws/branchRows, "1/row")
		}
		r.set("trace.overhead_ms", median(tracedCold)-median(cold), "ms")
		setTail(r, cold)
		prof.report(r, traced)
	} else {
		r.e2e.addWindow(cold, n, elapsed)
		r.e2e.LiveMB = append(r.e2e.LiveMB, live)
	}

	// Offline byte identity for the sampled studies, outside the window.
	for _, st := range studies {
		id, err := p.ScenarioKey(st.spec)
		if err != nil {
			return err
		}
		res, err := p.RunScenarioSpec(st.spec)
		if err != nil {
			return err
		}
		want := server.RenderResult(id, p.Name, res)
		r.op(bytes.Equal(st.cold, want) ||
			r.fail("study %s: daemon body differs from the offline rendering", st.spec.Name))
	}
	return nil
}

// scrape reads the daemon's counters from /metrics.
func scrape(d *dmpdClient) (map[string]float64, error) {
	code, body, _, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
