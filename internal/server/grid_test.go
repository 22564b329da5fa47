package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// replica is one grid member under test: its server, node, and listener.
type replica struct {
	url  string
	s    *Server
	node *grid.Node
	hs   *http.Server
	done chan struct{}
}

// startGridFleet spins n servers joined into one cache grid on loopback
// listeners. mut, when non-nil, adjusts each replica's Config (e.g. to
// install a counting solveFn after New).
func startGridFleet(t *testing.T, n int, mut func(i int, s *Server)) []*replica {
	t.Helper()
	return startWrappedGridFleet(t, n, mut, nil)
}

// startWrappedGridFleet is startGridFleet with wrap, when non-nil, in
// front of each replica's handler (e.g. to hold a peer RPC).
func startWrappedGridFleet(t *testing.T, n int, mut func(i int, s *Server), wrap func(i int, h http.Handler) http.Handler) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node := grid.NewNode(grid.NodeConfig{
			Self: urls[i], Peers: peers,
			ProbeInterval: time.Hour, // deterministic membership under test
		})
		s := New(Config{Workers: 2, Grid: node})
		if mut != nil {
			mut(i, s)
		}
		h := s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		hs := &http.Server{Handler: h}
		done := make(chan struct{})
		go func(hs *http.Server, ln net.Listener, done chan struct{}) {
			defer close(done)
			_ = hs.Serve(ln)
		}(hs, lns[i], done)
		reps[i] = &replica{url: urls[i], s: s, node: node, hs: hs, done: done}
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.stop()
		}
	})
	return reps
}

// stop tears one replica down (idempotent), simulating a crash for the
// rest of the fleet.
func (r *replica) stop() {
	select {
	case <-r.done:
		return // already stopped
	default:
	}
	_ = r.hs.Close()
	<-r.done
	r.s.Close()
	r.node.Close()
}

// countingSolves wraps a server's solveFn with a shared kernel-solve
// counter.
func countingSolves(s *Server, n *atomic.Int64) {
	real := s.solveFn
	s.solveFn = func(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int) (core.Result, error) {
		n.Add(1)
		return real(ctx, g, plat, p, workers)
	}
}

// TestGridPeerFillAndSecondReplicaHit: two replicas, one instance. The
// first request solves once; the same request against the other replica
// is served from cache — locally if the fill-back landed there, or as a
// peer read-through — never by a second solve.
func TestGridPeerFillAndSecondReplicaHit(t *testing.T) {
	var solves atomic.Int64
	reps := startGridFleet(t, 2, func(i int, s *Server) { countingSolves(s, &solves) })

	req := solveReq(testGraph(t, 21), 4, 2000)
	resp1, body1 := postJSON(t, reps[0].url+"/v1/solve", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", resp1.StatusCode, body1)
	}

	// The fill-back to the owner is asynchronous; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp2, body2 := postJSON(t, reps[1].url+"/v1/solve", req)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("second solve: status %d: %s", resp2.StatusCode, body2)
		}
		if xc := resp2.Header.Get("X-Cache"); xc == "hit" || xc == "peer" {
			if string(body2) != string(body1) {
				t.Fatalf("replica answers diverge:\n%s\n%s", body1, body2)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second replica never served the instance from cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d kernel solves across the fleet, want 1", got)
	}
}

// ownerFirst returns the replica that owns req's cache key, then the other
// one of a two-replica fleet.
func ownerFirst(t *testing.T, reps []*replica, req SolveRequest) (owner, other *replica) {
	t.Helper()
	key, _ := requestKey(t, reps[0].s, req)
	if reps[0].node.Owner(key) == reps[0].url {
		return reps[0], reps[1]
	}
	return reps[1], reps[0]
}

// served is one response, read off the test goroutine.
type served struct {
	status int
	cache  string
	body   string
	err    error
}

func postAsync(url string, req SolveRequest) <-chan served {
	out := make(chan served, 1)
	buf, err := json.Marshal(req)
	if err != nil {
		out <- served{err: err}
		return out
	}
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			out <- served{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() //bbvet:ignore errcheck
		out <- served{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: string(body), err: err}
	}()
	return out
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGridOwnerJoinsPeerFill: a peer holds the fill claim for a key and its
// fill-back is held up on the way to the owner. The owner's own request
// for the key waits for that fill instead of solving a second time, and
// is served from its cache once the fill lands.
func TestGridOwnerJoinsPeerFill(t *testing.T) {
	var solves atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	held := make(chan struct{}, 1)
	reps := startWrappedGridFleet(t, 2, func(i int, s *Server) { countingSolves(s, &solves) },
		func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/grid/v1/put" {
					held <- struct{}{}
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	req := solveReq(testGraph(t, 21), 4, 2000)
	owner, peer := ownerFirst(t, reps, req)
	first := <-postAsync(peer.url+"/v1/solve", req)
	if first.err != nil || first.status != http.StatusOK || first.cache != "miss" {
		t.Fatalf("peer solve: %+v", first)
	}
	<-held // the fill-back is at the owner, held before it is stored

	second := postAsync(owner.url+"/v1/solve", req)
	waitUntil(t, "the owner to wait on the peer's claim", func() bool { return owner.node.Snapshot().FlightWaits == 1 })
	releaseOnce.Do(func() { close(release) })
	got := <-second
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("owner request: %+v", got)
	}
	if got.cache != "hit" {
		t.Fatalf("owner request X-Cache %q, want hit", got.cache)
	}
	if got.body != first.body {
		t.Fatalf("owner and peer answers differ:\n%s\n%s", got.body, first.body)
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("%d kernel solves across the fleet, want 1", n)
	}
	waitUntil(t, "the fill-back to be acknowledged", func() bool { return peer.node.Snapshot().FillBacksSent == 1 })
	osnap, psnap := owner.node.Snapshot(), peer.node.Snapshot()
	if osnap.FillsGranted != 1 || osnap.FlightWaits != 1 || osnap.FillBacksRecv != 1 || psnap.FillBacksSent != 1 || osnap.OpenFlights != 0 {
		t.Fatalf("owner fills_granted=%d flight_waits=%d fill_backs_received=%d open_flights=%d, peer fill_backs_sent=%d; want 1/1/1/0, 1",
			osnap.FillsGranted, osnap.FlightWaits, osnap.FillBacksRecv, osnap.OpenFlights, psnap.FillBacksSent)
	}
}

// TestGridPeerWaitsOnOwnerSolve is the reverse order: the owner is solving
// a key when a peer asks for it. The peer's get waits for the owner's
// solve instead of being granted a fill claim, and the peer is served the
// owner's body.
func TestGridPeerWaitsOnOwnerSolve(t *testing.T) {
	var solves atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	// Room for unexpected extra solves, so that a failing run reports the
	// solve count instead of hanging.
	entered := make(chan struct{}, 4)
	reps := startGridFleet(t, 2, func(i int, s *Server) {
		real := s.solveFn
		s.solveFn = func(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int) (core.Result, error) {
			solves.Add(1)
			entered <- struct{}{}
			<-release
			return real(ctx, g, plat, p, workers)
		}
	})
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	req := solveReq(testGraph(t, 22), 4, 2000)
	owner, peer := ownerFirst(t, reps, req)
	first := postAsync(owner.url+"/v1/solve", req)
	<-entered // the owner's solve holds the key's flight

	second := postAsync(peer.url+"/v1/solve", req)
	waitUntil(t, "the peer's get to wait on the owner's solve", func() bool { return owner.node.Snapshot().FlightWaits == 1 })
	releaseOnce.Do(func() { close(release) })
	a, b := <-first, <-second
	if a.err != nil || a.status != http.StatusOK || a.cache != "miss" {
		t.Fatalf("owner request: %+v", a)
	}
	if b.err != nil || b.status != http.StatusOK || b.cache != "peer" {
		t.Fatalf("peer request: %+v", b)
	}
	if a.body != b.body {
		t.Fatalf("owner and peer answers differ:\n%s\n%s", a.body, b.body)
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("%d kernel solves across the fleet, want 1", n)
	}
	osnap, psnap := owner.node.Snapshot(), peer.node.Snapshot()
	if osnap.FillsGranted != 0 || osnap.FlightWaits != 1 || osnap.FillBacksRecv != 0 || psnap.FillBacksSent != 0 || osnap.OpenFlights != 0 {
		t.Fatalf("owner fills_granted=%d flight_waits=%d fill_backs_received=%d open_flights=%d, peer fill_backs_sent=%d; want 0/1/0/0, 0",
			osnap.FillsGranted, osnap.FlightWaits, osnap.FillBacksRecv, osnap.OpenFlights, psnap.FillBacksSent)
	}
}

// TestGridKillOneOfThreeMidLoad is the replica-failure contract: with a
// 3-replica grid serving a workload, killing one replica re-owns its
// key range onto the survivors and every subsequent request is still
// answered correctly (costs identical to a single-replica reference).
func TestGridKillOneOfThreeMidLoad(t *testing.T) {
	const instances = 6
	graphs := make([]*taskgraph.Graph, instances)
	for i := range graphs {
		graphs[i] = testGraph(t, int64(300+i))
	}

	// Single-replica reference answers.
	ref := New(Config{Workers: 2})
	defer ref.Close()
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()
	want := make([]SolveResponse, instances)
	for i, g := range graphs {
		resp, body := postJSON(t, rts.URL+"/v1/solve", solveReq(g, 4, 2000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &want[i]); err != nil {
			t.Fatal(err)
		}
	}

	check := func(round string, rep *replica, i int) {
		resp, body := postJSON(t, rep.url+"/v1/solve", solveReq(graphs[i], 4, 2000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: instance %d via %s: status %d: %s", round, i, rep.url, resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Feasible != want[i].Feasible || sr.Lmax != want[i].Lmax {
			t.Fatalf("%s: instance %d: feasible=%v lmax=%d, reference feasible=%v lmax=%d",
				round, i, sr.Feasible, sr.Lmax, want[i].Feasible, want[i].Lmax)
		}
		if sr.Feasible {
			if _, err := scheduleFromPlacements(graphs[i], platform.Platform{M: 4}, sr.Schedule); err != nil {
				t.Fatalf("%s: instance %d: served schedule invalid: %v", round, i, err)
			}
		}
	}

	reps := startGridFleet(t, 3, nil)
	for i := range graphs {
		check("pre-kill", reps[i%3], i)
	}

	// Kill one replica mid-load; the survivors must re-own its key range
	// and keep answering every instance correctly.
	reps[2].stop()
	for i := range graphs {
		check("post-kill", reps[i%2], i)
	}
	for _, rep := range reps[:2] {
		members := rep.node.Members()
		if len(members) > 2 {
			continue // this survivor never had to talk to the dead replica
		}
		for _, mem := range members {
			if mem == reps[2].url {
				t.Fatalf("survivor %s still lists the dead replica: %v", rep.url, members)
			}
		}
	}
}

// TestBatchIsomorphicMembersSolveOnce: a batch of relabeled copies of
// one instance reduces to a single isomorphism class — exactly one
// kernel solve — while every member's schedule is returned in its own
// task numbering.
func TestBatchIsomorphicMembersSolveOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var solves atomic.Int64
	countingSolves(s, &solves)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const members = 6
	g := testGraph(t, 33)
	n := g.NumTasks()
	rng := rand.New(rand.NewSource(7))
	batch := BatchRequest{Requests: make([]SolveRequest, members)}
	graphs := make([]*taskgraph.Graph, members)
	graphs[0] = g
	batch.Requests[0] = solveReq(g, 4, 2000)
	for i := 1; i < members; i++ {
		perm := make([]taskgraph.TaskID, n)
		for j, p := range rng.Perm(n) {
			perm[j] = taskgraph.TaskID(p)
		}
		rg, err := taskgraph.Relabel(g, perm)
		if err != nil {
			t.Fatalf("relabel: %v", err)
		}
		graphs[i] = rg
		batch.Requests[i] = solveReq(rg, 4, 2000)
	}

	resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Classes != 1 || br.Deduped != members-1 {
		t.Fatalf("classes=%d deduped=%d, want 1/%d", br.Classes, br.Deduped, members-1)
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d kernel solves for %d isomorphic members, want 1", got, members)
	}
	if len(br.Results) != members {
		t.Fatalf("%d results for %d members", len(br.Results), members)
	}
	for i, sr := range br.Results {
		if sr.Feasible != br.Results[0].Feasible || sr.Lmax != br.Results[0].Lmax {
			t.Fatalf("member %d diverges: feasible=%v lmax=%d vs %v/%d",
				i, sr.Feasible, sr.Lmax, br.Results[0].Feasible, br.Results[0].Lmax)
		}
		if sr.Feasible {
			if _, err := scheduleFromPlacements(graphs[i], platform.Platform{M: 4}, sr.Schedule); err != nil {
				t.Fatalf("member %d: schedule invalid in its own numbering: %v", i, err)
			}
		}
	}
}

// TestBatchQuickCheckRelabeled is the quick-check form of the batch
// dedup contract: across random instances and random relabelings, a
// batch always solves one kernel per isomorphism class and returns
// valid schedules in each member's own numbering.
func TestBatchQuickCheckRelabeled(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var solves atomic.Int64
	countingSolves(s, &solves)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		// Two distinct instances, each with a few relabeled aliases, shuffled
		// together: the batch must find exactly two classes.
		a := testGraph(t, int64(500+2*trial))
		b := testGraph(t, int64(501+2*trial))
		var reqs []SolveRequest
		var graphs []*taskgraph.Graph
		for _, g := range []*taskgraph.Graph{a, b} {
			graphs = append(graphs, g)
			reqs = append(reqs, solveReq(g, 3, 2000))
			for k := 0; k < 1+rng.Intn(3); k++ {
				perm := make([]taskgraph.TaskID, g.NumTasks())
				for j, p := range rng.Perm(g.NumTasks()) {
					perm[j] = taskgraph.TaskID(p)
				}
				rg, err := taskgraph.Relabel(g, perm)
				if err != nil {
					t.Fatalf("relabel: %v", err)
				}
				graphs = append(graphs, rg)
				reqs = append(reqs, solveReq(rg, 3, 2000))
			}
		}
		rng.Shuffle(len(reqs), func(i, j int) {
			reqs[i], reqs[j] = reqs[j], reqs[i]
			graphs[i], graphs[j] = graphs[j], graphs[i]
		})

		before := solves.Load()
		resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: reqs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: status %d: %s", trial, resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Classes != 2 {
			t.Fatalf("trial %d: %d classes for 2 instances", trial, br.Classes)
		}
		if got := solves.Load() - before; got != 2 {
			t.Fatalf("trial %d: %d kernel solves, want 2", trial, got)
		}
		for i, sr := range br.Results {
			if !sr.Feasible {
				continue
			}
			if _, err := scheduleFromPlacements(graphs[i], platform.Platform{M: 3}, sr.Schedule); err != nil {
				t.Fatalf("trial %d member %d: schedule invalid: %v", trial, i, err)
			}
		}
	}
}

// TestBatchRejectsBadMembers: validation failures surface as 400s with
// the offending member named, before any solve runs.
func TestBatchRejectsBadMembers(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	bad := solveReq(testGraph(t, 1), 4, 1000)
	bad.Distributed = true
	if resp, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []SolveRequest{bad}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("distributed member: status %d, want 400", resp.StatusCode)
	}
}

// TestTenantAdmissionAndIsolation: an unknown X-Tenant is a 400; a
// saturated tenant's 429 does not spill onto another tenant's quota,
// and the 429 carries a Retry-After.
func TestTenantAdmissionAndIsolation(t *testing.T) {
	s, release, entered := blockingServer(Config{
		Workers: 1, DefaultBudget: 30 * time.Second,
		Tenants: []grid.Tenant{
			{Name: "gold", Weight: 2, QueueCap: 4},
			{Name: "free", Weight: 1, QueueCap: 1},
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	strangerBuf, err := json.Marshal(solveReq(testGraph(t, 1), 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postWithHeader(t, ts.URL+"/v1/solve", "stranger", strangerBuf); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tenant: status %d: %s", resp.StatusCode, body)
	}

	// Occupy the slot (free), then fill free's queue quota of 1.
	results := make(chan int, 8)
	launch := func(tenant string, seed int64) {
		buf, _ := json.Marshal(solveReq(testGraph(t, seed), 4, 0))
		go func() {
			resp, _ := postWithHeader(t, ts.URL+"/v1/solve", tenant, buf)
			results <- resp.StatusCode
		}()
	}
	launch("free", 10)
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first solve never entered")
		}
		time.Sleep(time.Millisecond)
	}
	launch("free", 11)
	for s.adm.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("free queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// free is over quota → 429 with Retry-After; gold is untouched → queues.
	buf, _ := json.Marshal(solveReq(testGraph(t, 12), 4, 0))
	resp, body := postWithHeader(t, ts.URL+"/v1/solve", "free", buf)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("free over quota: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	launch("gold", 13)
	for s.adm.QueueDepth() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("gold request was not admitted despite free's rejection")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	for i := 0; i < 3; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request finished with %d", code)
		}
	}

	snap := s.Metrics()
	var free, gold *grid.TenantSnapshot
	for i := range snap.Tenants {
		switch snap.Tenants[i].Name {
		case "free":
			free = &snap.Tenants[i]
		case "gold":
			gold = &snap.Tenants[i]
		}
	}
	if free == nil || gold == nil {
		t.Fatalf("tenant snapshots missing: %+v", snap.Tenants)
	}
	if free.Rejected != 1 || free.Served != 2 || gold.Served != 1 {
		t.Fatalf("free rejected=%d served=%d gold served=%d, want 1/2/1",
			free.Rejected, free.Served, gold.Served)
	}
}

// postWithHeader posts JSON with an X-Tenant header.
func postWithHeader(t *testing.T, url, tenant string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}
