package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// testGraph draws one paper-default workload instance (12–16 tasks) with
// deadlines assigned.
func testGraph(t testing.TB, seed int64) *taskgraph.Graph {
	t.Helper()
	p := gen.Defaults()
	g := gen.New(p, seed).Graph()
	if err := deadline.Assign(g, p.Laxity, deadline.EqualSlack); err != nil {
		t.Fatalf("deadline.Assign: %v", err)
	}
	return g
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func solveReq(g *taskgraph.Graph, procs int, budgetMS int64) SolveRequest {
	return SolveRequest{
		GraphRequest: GraphRequest{Graph: g, Procs: procs},
		BudgetMS:     budgetMS,
	}
}

// TestEndpointsSmoke drives every /v1 endpoint once against the real
// solvers on a small instance.
func TestEndpointsSmoke(t *testing.T) {
	s := New(Config{Workers: 2, DefaultBudget: 2 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 1)
	plat := platform.New(4)

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(g, 4, 2000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("solve decode: %v", err)
	}
	if !sr.Feasible || len(sr.Schedule) != g.NumTasks() {
		t.Fatalf("solve: feasible=%v schedule=%d tasks (want %d): %s",
			sr.Feasible, len(sr.Schedule), g.NumTasks(), body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/anytime", AnytimeRequest{
		GraphRequest: GraphRequest{Graph: g, Procs: 4}, BudgetMS: 1000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anytime: %d %s", resp.StatusCode, body)
	}
	var ar AnytimeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("anytime decode: %v", err)
	}
	if len(ar.Schedule) != g.NumTasks() || ar.Lmax < ar.Lower {
		t.Fatalf("anytime: %s", body)
	}
	if sr.Optimal && ar.Optimal && ar.Lmax != sr.Lmax {
		t.Fatalf("anytime optimal Lmax %d disagrees with solve optimal Lmax %d", ar.Lmax, sr.Lmax)
	}

	resp, body = postJSON(t, ts.URL+"/v1/list", ListRequest{
		GraphRequest: GraphRequest{Graph: g, Procs: 4}, Policy: "edf",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	var lr ListResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if lr.Policy != "EDF" || len(lr.Schedule) != g.NumTasks() {
		t.Fatalf("list: %s", body)
	}
	if sr.Optimal && lr.Lmax < sr.Lmax {
		t.Fatalf("EDF Lmax %d beats proven optimum %d", lr.Lmax, sr.Lmax)
	}

	resp, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		GraphRequest: GraphRequest{Graph: g, Procs: 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	var anr AnalyzeResponse
	if err := json.Unmarshal(body, &anr); err != nil {
		t.Fatalf("analyze decode: %v", err)
	}
	if anr.TotalWork <= 0 || anr.Lower > ar.Lmax {
		t.Fatalf("analyze: %s", body)
	}

	// recover: replay the EDF schedule under a processor failure mid-run.
	best, err := listsched.Schedule(g, plat, listsched.EDF)
	if err != nil {
		t.Fatalf("listsched: %v", err)
	}
	mk := best.Schedule.Makespan()
	resp, body = postJSON(t, ts.URL+"/v1/recover", RecoverRequest{
		GraphRequest: GraphRequest{Graph: g, Procs: 4},
		Schedule:     best.Schedule.Placements(),
		Faults:       []FaultSpec{{Kind: "proc-failure", Proc: 0, At: mk / 2}},
		BudgetMS:     1000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d %s", resp.StatusCode, body)
	}
	var rr RecoverResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("recover decode: %v", err)
	}

	// /metrics reflects the five calls.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var ms MetricsSnapshot
	err = json.NewDecoder(mresp.Body).Decode(&ms)
	_ = mresp.Body.Close() //bbvet:ignore errcheck
	if err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	for _, ep := range []string{"solve", "anytime", "list", "analyze", "recover"} {
		if ms.Endpoints[ep].Requests != 1 {
			t.Fatalf("metrics: endpoint %s requests=%d, want 1", ep, ms.Endpoints[ep].Requests)
		}
	}
	if ms.CacheSize == 0 || ms.Solves == 0 {
		t.Fatalf("metrics: cache_size=%d solves=%d", ms.CacheSize, ms.Solves)
	}

	// /healthz is OK while serving.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	_ = hresp.Body.Close() //bbvet:ignore errcheck
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
}

// TestSolveCacheHit: the same request twice — second response is a cache
// hit with byte-identical body.
func TestSolveCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 7)
	req := solveReq(g, 4, 2000)

	resp1, body1 := postJSON(t, ts.URL+"/v1/solve", req)
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status: %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from original")
	}
	// workers 0 and 1 both run the sequential kernel: one cache line.
	req.Workers = 1
	resp3, body3 := postJSON(t, ts.URL+"/v1/solve", req)
	if got := resp3.Header.Get("X-Cache"); resp3.StatusCode != http.StatusOK || got != "hit" || !bytes.Equal(body1, body3) {
		t.Fatalf("workers=1: status %d X-Cache = %q, want a hit with the same body", resp3.StatusCode, got)
	}
	if got := s.Metrics().Solves; got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
}

// TestSolveCacheRelabelingHit: a relabeled copy of the same DAG hits the
// cache (the canonical form is ID-insensitive), AND the served schedule is
// valid *in the requester's own numbering* — a cached body may not leak
// another client's task IDs. scheduleFromPlacements replays the placements
// against the relabeled graph, so a misnumbered schedule fails its
// finish-consistency and precedence checks (exec times and deadlines differ
// per task under the permutation).
func TestSolveCacheRelabelingHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 11)
	n := g.NumTasks()
	perm := make([]taskgraph.TaskID, n)
	for i := range perm {
		perm[i] = taskgraph.TaskID((i + 5) % n)
	}
	relabeled, err := taskgraph.Relabel(g, perm)
	if err != nil {
		t.Fatalf("relabel: %v", err)
	}

	resp1, body1 := postJSON(t, ts.URL+"/v1/solve", solveReq(g, 4, 2000))
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", solveReq(relabeled, 4, 2000))
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status: %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("relabeled request X-Cache = %q, want hit", got)
	}

	plat := platform.New(4)
	var sr1, sr2 SolveResponse
	if err := json.Unmarshal(body1, &sr1); err != nil {
		t.Fatalf("decode original response: %v", err)
	}
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatalf("decode relabeled response: %v", err)
	}
	if !sr1.Feasible || !sr2.Feasible {
		t.Fatalf("feasible: %v / %v", sr1.Feasible, sr2.Feasible)
	}
	if _, err := scheduleFromPlacements(g, plat, sr1.Schedule); err != nil {
		t.Fatalf("original schedule invalid for original graph: %v", err)
	}
	if _, err := scheduleFromPlacements(relabeled, plat, sr2.Schedule); err != nil {
		t.Fatalf("cached schedule invalid for the relabeled graph: %v", err)
	}
	// Same instance, same solver: the objective must agree even though the
	// task numbering does not.
	if sr1.Lmax != sr2.Lmax || sr1.Makespan != sr2.Makespan {
		t.Fatalf("relabeled answer diverges: Lmax %d/%d makespan %d/%d",
			sr1.Lmax, sr2.Lmax, sr1.Makespan, sr2.Makespan)
	}
}

// TestRelabelingRemapAllScheduleEndpoints drives the placement-remap path
// on every schedule-bearing cached endpoint (anytime and list; solve is
// covered above): post the instance, post a relabeled copy, and require a
// cache hit whose schedule validates against the relabeled graph.
func TestRelabelingRemapAllScheduleEndpoints(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 17)
	n := g.NumTasks()
	perm := make([]taskgraph.TaskID, n)
	for i := range perm {
		perm[i] = taskgraph.TaskID(n - 1 - i)
	}
	relabeled, err := taskgraph.Relabel(g, perm)
	if err != nil {
		t.Fatalf("relabel: %v", err)
	}
	plat := platform.New(4)

	check := func(path string, reqFor func(*taskgraph.Graph) any, schedOf func([]byte) ([]sched.Placement, taskgraph.Time)) {
		t.Helper()
		resp1, body1 := postJSON(t, ts.URL+path, reqFor(g))
		resp2, body2 := postJSON(t, ts.URL+path, reqFor(relabeled))
		if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d / %d: %s", path, resp1.StatusCode, resp2.StatusCode, body2)
		}
		if got := resp2.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("%s: relabeled request X-Cache = %q, want hit", path, got)
		}
		pls1, lmax1 := schedOf(body1)
		pls2, lmax2 := schedOf(body2)
		if _, err := scheduleFromPlacements(relabeled, plat, pls2); err != nil {
			t.Fatalf("%s: cached schedule invalid for relabeled graph: %v", path, err)
		}
		if len(pls1) != len(pls2) || lmax1 != lmax2 {
			t.Fatalf("%s: relabeled answer diverges: %d/%d placements, Lmax %d/%d",
				path, len(pls1), len(pls2), lmax1, lmax2)
		}
	}

	check("/v1/anytime",
		func(g *taskgraph.Graph) any {
			return AnytimeRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, BudgetMS: 1000}
		},
		func(body []byte) ([]sched.Placement, taskgraph.Time) {
			var ar AnytimeResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatalf("anytime decode: %v", err)
			}
			return ar.Schedule, ar.Lmax
		})
	check("/v1/list",
		func(g *taskgraph.Graph) any {
			return ListRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, Policy: "edf"}
		},
		func(body []byte) ([]sched.Placement, taskgraph.Time) {
			var lr ListResponse
			if err := json.Unmarshal(body, &lr); err != nil {
				t.Fatalf("list decode: %v", err)
			}
			return lr.Schedule, lr.Lmax
		})
}

// TestRecoverCountsNeitherHitNorMiss: /v1/recover is deliberately uncached,
// so a successful call must not skew the cache hit-rate metrics.
func TestRecoverCountsNeitherHitNorMiss(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 19)
	plat := platform.New(4)
	best, err := listsched.Best(g, plat)
	if err != nil {
		t.Fatalf("listsched: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/recover", RecoverRequest{
		GraphRequest: GraphRequest{Graph: g, Procs: 4},
		Schedule:     best.Schedule.Placements(),
		Faults:       []FaultSpec{{Kind: "proc-failure", Proc: 0, At: best.Schedule.Makespan() / 2}},
		BudgetMS:     1000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("recover X-Cache = %q, want bypass", got)
	}
	ep := s.Metrics().Endpoints["recover"]
	if ep.CacheHits != 0 || ep.CacheMisses != 0 {
		t.Fatalf("recover counted cache traffic: hits=%d misses=%d", ep.CacheHits, ep.CacheMisses)
	}
	if ep.Requests != 1 || ep.Errors != 0 {
		t.Fatalf("recover requests=%d errors=%d", ep.Requests, ep.Errors)
	}
}

// TestConcurrentIdenticalRequestsSolveOnce is the HTTP-level half of the
// singleflight requirement: N concurrent identical requests, one solve.
func TestConcurrentIdenticalRequestsSolveOnce(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	var solves atomic.Int64
	real := s.solveFn
	s.solveFn = func(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int) (core.Result, error) {
		solves.Add(1)
		time.Sleep(30 * time.Millisecond) // widen the race window
		return real(ctx, g, plat, p, workers)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 3)
	req := solveReq(g, 4, 2000)

	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			_ = resp.Body.Close() //bbvet:ignore errcheck
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d solves for %d identical concurrent requests, want 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
}

// blockingServer installs a solveFn that parks until release is closed.
func blockingServer(cfg Config) (*Server, chan struct{}, *atomic.Int64) {
	s := New(cfg)
	release := make(chan struct{})
	var entered atomic.Int64
	s.solveFn = func(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int) (core.Result, error) {
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.Result{}, nil
	}
	return s, release, &entered
}

// TestOverloadRejects429 is the ISSUE's admission-control requirement:
// with queue depth k and more than k in-flight slow requests, the next
// request is rejected with 429 and a Retry-After header.
func TestOverloadRejects429(t *testing.T) {
	const workers, queue = 1, 2
	s, release, entered := blockingServer(Config{
		Workers: workers, QueueDepth: queue, DefaultBudget: 30 * time.Second,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// workers+queue slow requests with distinct graphs (distinct cache
	// keys, so singleflight cannot collapse them).
	var wg sync.WaitGroup
	for i := 0; i < workers+queue; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(testGraph(t, int64(100+i)), 4, 0))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("in-flight request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}

	// Wait until one solve is running and the queue is full.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if entered.Load() == int64(workers) && s.adm.QueueDepth() == queue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: entered=%d queued=%d", entered.Load(), s.adm.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(testGraph(t, 999), 4, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: status %d (want 429): %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("overload response missing Retry-After, got %q", ra)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("overload body not an ErrorResponse: %s", body)
	}

	close(release)
	wg.Wait()

	ms := s.Metrics()
	if ms.Endpoints["solve"].Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", ms.Endpoints["solve"].Rejected)
	}
}

// TestDrain: in-flight work finishes, queued work is released with 503,
// new work is rejected, and /healthz flips to draining.
func TestDrain(t *testing.T) {
	s, release, entered := blockingServer(Config{
		Workers: 1, QueueDepth: 4, DefaultBudget: 30 * time.Second,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", solveReq(testGraph(t, 201), 4, 0))
		inflight <- resp.StatusCode
	}()
	queued := make(chan int, 1)
	go func() {
		// Ensure this one queues behind the first.
		for entered.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		resp, _ := postJSON(t, ts.URL+"/v1/solve", solveReq(testGraph(t, 202), 4, 0))
		queued <- resp.StatusCode
	}()

	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() != 1 || s.adm.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("never reached 1 running + 1 queued: entered=%d queued=%d",
				entered.Load(), s.adm.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain()

	// The queued request is released with 503.
	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request during drain: status %d, want 503", code)
	}
	// New requests are rejected at the door.
	resp, _ := postJSON(t, ts.URL+"/v1/solve", solveReq(testGraph(t, 203), 4, 0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d, want 503", resp.StatusCode)
	}
	// /healthz reports draining.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hr HealthResponse
	err = json.NewDecoder(hresp.Body).Decode(&hr)
	_ = hresp.Body.Close() //bbvet:ignore errcheck
	if err != nil || hresp.StatusCode != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Fatalf("healthz during drain: %d %+v (err=%v)", hresp.StatusCode, hr, err)
	}

	// The in-flight solve still completes normally.
	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request after drain: status %d, want 200", code)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 5)
	cases := []struct {
		name string
		path string
		req  any
	}{
		{"missing graph", "/v1/solve", SolveRequest{GraphRequest: GraphRequest{Procs: 4}}},
		{"zero procs", "/v1/solve", solveReq(g, 0, 0)},
		{"huge procs", "/v1/solve", SolveRequest{GraphRequest: GraphRequest{Graph: g, Procs: 1000}}},
		{"bad selection", "/v1/solve", SolveRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, Select: "zzz"}},
		{"bad BR", "/v1/solve", SolveRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, BR: 1.5}},
		{"negative budget", "/v1/solve", SolveRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, BudgetMS: -1}},
		{"bad policy", "/v1/list", ListRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, Policy: "zzz"}},
		{"bad fault kind", "/v1/recover", RecoverRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}, Faults: []FaultSpec{{Kind: "zzz"}}}},
		{"recover no schedule", "/v1/recover", RecoverRequest{GraphRequest: GraphRequest{Graph: g, Procs: 4}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, body)
		}
	}

	// Syntactically broken JSON is a 400, too.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() //bbvet:ignore errcheck
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestBudgetClamped(t *testing.T) {
	cfg := Config{DefaultBudget: time.Second, MaxBudget: 2 * time.Second}.withDefaults()
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, time.Second},
		{500, 500 * time.Millisecond},
		{60_000, 2 * time.Second},
	} {
		got, err := budgetFrom(tc.ms, cfg)
		if err != nil || got != tc.want {
			t.Errorf("budgetFrom(%d) = %v, %v; want %v", tc.ms, got, err, tc.want)
		}
	}
	if _, err := budgetFrom(-1, cfg); err == nil {
		t.Errorf("budgetFrom(-1) accepted")
	}
}

func TestScheduleFromPlacementsRejectsGarbage(t *testing.T) {
	g := testGraph(t, 9)
	plat := platform.New(4)
	best, err := listsched.Best(g, plat)
	if err != nil {
		t.Fatal(err)
	}
	good := best.Schedule.Placements()

	if _, err := scheduleFromPlacements(g, plat, good); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if _, err := scheduleFromPlacements(g, plat, good[:len(good)-1]); err == nil {
		t.Fatalf("incomplete schedule accepted")
	}
	dup := append(good[:0:0], good...)
	dup[1] = dup[0]
	if _, err := scheduleFromPlacements(g, plat, dup); err == nil {
		t.Fatalf("duplicate placement accepted")
	}
	wrongFinish := append(good[:0:0], good...)
	wrongFinish[0].Finish += 1
	if _, err := scheduleFromPlacements(g, plat, wrongFinish); err == nil {
		t.Fatalf("inconsistent finish accepted")
	}
	badProc := append(good[:0:0], good...)
	badProc[0].Proc = 99
	if _, err := scheduleFromPlacements(g, plat, badProc); err == nil {
		t.Fatalf("out-of-range proc accepted")
	}
}

func TestMetricsUtilizationBounded(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 13)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(g, 4, 1000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	ms := s.Metrics()
	if ms.WorkerUtilization < 0 || ms.WorkerUtilization > 1 {
		t.Fatalf("utilization %v outside [0,1]", ms.WorkerUtilization)
	}
	if ms.Endpoints["solve"].Latency.Count != 3 {
		t.Fatalf("latency count = %d, want 3", ms.Endpoints["solve"].Latency.Count)
	}
	if ms.Endpoints["solve"].Latency.P99US < ms.Endpoints["solve"].Latency.P50US {
		t.Fatalf("p99 %d < p50 %d", ms.Endpoints["solve"].Latency.P99US, ms.Endpoints["solve"].Latency.P50US)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 100; i++ {
		h.observe(time.Duration(i) * time.Microsecond) // buckets up to 128µs
	}
	if got := h.quantile(0.5); got < 32 || got > 128 {
		t.Fatalf("p50 = %dµs, want within [32,128]", got)
	}
	if h.quantile(0.99) < h.quantile(0.5) {
		t.Fatalf("p99 < p50")
	}
	var empty histogram
	if empty.quantile(0.99) != 0 {
		t.Fatalf("empty histogram quantile nonzero")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers <= 0 || c.QueueDepth <= 0 || c.CacheEntries <= 0 ||
		c.DefaultBudget <= 0 || c.MaxBudget <= 0 || c.Logf == nil {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	if d := (Config{CacheEntries: -1}).withDefaults(); d.CacheEntries != 0 {
		t.Fatalf("CacheEntries=-1 should disable the cache, got %d", d.CacheEntries)
	}
}

// TestSolveDedupKnob: every global solve the server runs is already
// duplicate-free, so "dedup" builds no table and changes nothing: a dedup
// request after a plain one for the same graph is a cache hit with the
// same bytes, a dedup_budget member is skipped like any unknown member,
// and /metrics has no transpose block.
func TestSolveDedupKnob(t *testing.T) {
	s := New(Config{Workers: 2, DefaultBudget: 5 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plain := solveReq(testGraph(t, 7), 3, 5000)
	resp, body := postJSON(t, ts.URL+"/v1/solve", plain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain solve: %d %s", resp.StatusCode, body)
	}
	dedup := plain
	dedup.Dedup = true
	raw, err := json.Marshal(dedup)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw[:len(raw)-1], `,"dedup_budget":1048576}`...)
	resp, dbody := postWithHeader(t, ts.URL+"/v1/solve", "", raw)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(dbody, body) {
		t.Fatalf("dedup solve: %d X-Cache=%q, body equal to the plain one: %v\n%s",
			resp.StatusCode, resp.Header.Get("X-Cache"), bytes.Equal(dbody, body), dbody)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms map[string]json.RawMessage
	err = json.NewDecoder(mresp.Body).Decode(&ms)
	_ = mresp.Body.Close() //bbvet:ignore errcheck
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms["transpose"]; ok {
		t.Fatalf("metrics carry a transpose block: %s", ms["transpose"])
	}
	if got := s.Metrics().Solves; got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
}

// TestServedSolvesAreDuplicateFree: global solves, in-process and
// distributed, and only they, search without duplicate children. The answer is the paper's
// tree's, the Stats are the duplicate-free solve's on the canonical
// graph, and the cache key tells the two apart.
func TestServedSolvesAreDuplicateFree(t *testing.T) {
	for _, c := range []struct {
		name string
		req  SolveRequest
		want bool
	}{
		{"global", SolveRequest{}, true},
		{"parallel", SolveRequest{Workers: 2}, true},
		{"distributed", SolveRequest{Distributed: true}, true},
		{"partitioned", SolveRequest{Mode: "partitioned"}, false},
	} {
		p, err := c.req.params()
		if err != nil {
			t.Fatal(err)
		}
		if p.DuplicateFree != c.want {
			t.Errorf("%s: DuplicateFree = %v, want %v", c.name, p.DuplicateFree, c.want)
		}
	}

	s := New(Config{Workers: 2, DefaultBudget: 5 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := testGraph(t, 7)
	req := solveReq(g, 3, 5000)
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	plat := platform.New(3)
	off, err := core.Solve(g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := canonicalize(g)
	if err != nil {
		t.Fatal(err)
	}
	on, err := core.Solve(cg.g, plat, core.Params{DuplicateFree: true})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Lmax != off.Cost || sr.Optimal != off.Optimal {
		t.Fatalf("served lmax=%d optimal=%v, paper's tree cost=%d optimal=%v", sr.Lmax, sr.Optimal, off.Cost, off.Optimal)
	}
	if sr.Stats.Generated != on.Stats.Generated || sr.Stats.Generated >= off.Stats.Generated {
		t.Fatalf("served generated %d, duplicate-free %d, paper's tree %d", sr.Stats.Generated, on.Stats.Generated, off.Stats.Generated)
	}

	p, err := req.params()
	if err != nil {
		t.Fatal(err)
	}
	q := p
	q.DuplicateFree = false
	if solveKey(cg, "m=3", p, req, false, time.Second) == solveKey(cg, "m=3", q, req, false, time.Second) {
		t.Fatal("the cache key does not tell duplicate-free solves apart")
	}
}
