// Package server is the scheduling-as-a-service layer: an embeddable
// net/http handler exposing the repository's solvers — exact B&B, the
// anytime portfolio, list scheduling, workload analysis, and fault
// recovery — as JSON endpoints over the same facade the CLIs use.
//
// Three mechanisms make it a daemon rather than a script runner:
//
//   - result cache: request graphs are reduced to canonical form
//     (taskgraph.Canonical, a relabeling derived from the fingerprint's WL
//     refinement) and keyed by a SHA-256 of the canonical graph's exact
//     binary encoding (taskgraph.Graph.AppendKey) plus platform and solver
//     parameters — label-insensitive sharing without trusting the WL digest
//     as an identity; schedule placements are spliced back into the
//     requester's numbering before responding (remapBody). A sharded LRU
//     serves repeats and singleflight collapses concurrent identical
//     misses into one solve;
//   - admission control: weighted fair queueing over per-tenant bounded
//     queues (internal/grid.WFQ); overload yields an immediate 429 with a
//     live Retry-After computed from the tenant's queue depth and observed
//     service rate, and every solve runs under a budget enforced both by
//     context and by the solver's own TimeLimit;
//   - graceful drain: Drain stops admitting work while in-flight solves
//     finish (or hit their budgets), so SIGTERM never truncates a result.
//
// Request bodies are decoded in one pass (decode.go, on internal/jsonread)
// under encoding/json's rules, with no encoding/json on the request path.
// Every /v1 endpoint decodes, counts and admits in that order (accept).
//
// With a grid.Node configured the server becomes one replica of a cache
// grid: the canonical key space is consistent-hashed across replicas,
// cache misses read through the key's owner (single-flight per key
// fleet-wide: the owner's own solves and the fill claims it grants share
// one flight table), and freshly solved bodies are filled back to the
// owner.
// /v1/batch solves a set of graphs as one request, collapsing
// isomorphic members onto a single kernel solve through the same
// canonical keys.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/hetero"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/portfolio"
	"repro/internal/rescue"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// maxBodyBytes bounds a request body; a 16-MiB graph is far beyond
// anything the exponential solvers could finish anyway.
const maxBodyBytes = 16 << 20

// Config tunes the server; zero values pick sensible defaults.
type Config struct {
	// Workers bounds concurrent solves (default GOMAXPROCS).
	Workers int

	// QueueDepth bounds requests waiting for a worker slot (default 64).
	// Request workers+queueDepth+1 concurrent solves and the last one is
	// rejected with 429.
	QueueDepth int

	// CacheEntries bounds the result cache (default 4096; negative
	// disables retention — singleflight de-duplication remains).
	CacheEntries int

	// DefaultBudget applies when a request carries no budget_ms
	// (default 5s); MaxBudget clamps explicit budgets (default 60s).
	DefaultBudget time.Duration
	MaxBudget     time.Duration

	// Fleet, when non-nil, turns this server into a distributed B&B
	// coordinator: the /dist/v1/ worker API is mounted, solve requests
	// with "distributed": true are sharded across the fleet's workers,
	// and /metrics reports the fleet counters.
	Fleet *dist.Fleet

	// Tenants are the admission classes for weighted fair queueing.
	// Requests select theirs via the X-Tenant header; untagged requests
	// use the always-present "default" tenant. Empty means single-tenant
	// (default only), which reproduces the plain bounded-pool behavior.
	Tenants []grid.Tenant

	// Grid, when non-nil, joins this server to a replicated cache grid:
	// the node's peer protocol is mounted under /grid/v1/, the result
	// cache becomes the node's store, and cacheable endpoints read
	// through the ring owner of each canonical key.
	Grid *grid.Node

	// Logf receives one line per served request; nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	switch {
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	case c.CacheEntries == 0:
		c.CacheEntries = 4096
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 5 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the service instance. Create with New, mount via Handler,
// stop with Drain (graceful) and Close (hard).
type Server struct {
	cfg      Config
	adm      *grid.WFQ
	gridNode *grid.Node
	cache    *resultCache
	mux      *http.ServeMux
	started  time.Time

	// baseCtx parents every solve so budgets survive client disconnects
	// (a flight's result is shared; the leader's peer going away must not
	// cancel it). Close cancels it.
	baseCtx context.Context
	cancel  context.CancelFunc

	draining atomic.Bool

	metrics map[string]*endpointMetrics

	// solveFn is the exact-solver seam; tests substitute slow or counting
	// solvers to exercise admission control without real search workloads.
	solveFn func(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int) (core.Result, error)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		adm: grid.NewWFQ(grid.WFQConfig{
			Workers: cfg.Workers,
			Tenants: cfg.Tenants,
			// The default tenant's quota is the configured queue depth, so a
			// single-tenant deployment keeps the exact workers+queue+1 → 429
			// admission contract of the plain pool.
			DefaultQueueCap: cfg.QueueDepth,
			FallbackRetryS:  retryAfterSeconds(cfg),
		}),
		gridNode: cfg.Grid,
		cache:    newResultCache(cfg.CacheEntries),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		baseCtx:  ctx,
		cancel:   cancel,
		solveFn:  defaultSolve,
		metrics: map[string]*endpointMetrics{
			"solve":   {},
			"batch":   {},
			"anytime": {},
			"list":    {},
			"analyze": {},
			"recover": {},
			"dist":    {},
		},
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/anytime", s.handleAnytime)
	s.mux.HandleFunc("POST /v1/list", s.handleList)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/recover", s.handleRecover)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Fleet != nil {
		s.mux.Handle("POST /dist/v1/", cfg.Fleet.Handler())
	}
	if s.gridNode != nil {
		s.gridNode.Bind(s.cache)
		s.mux.Handle("POST /grid/v1/", s.gridNode.Handler())
	}
	return s
}

func defaultSolve(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int) (core.Result, error) {
	if workers > 1 {
		return core.SolveParallelContext(ctx, g, plat, core.ParallelParams{Params: p, Workers: workers})
	}
	return core.SolveContext(ctx, g, plat, p)
}

// Handler returns the mountable HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new work: queued waiters are released with 503,
// subsequent requests are rejected, /healthz turns "draining". In-flight
// solves run to completion (or to their budgets).
func (s *Server) Drain() {
	s.draining.Store(true)
	s.adm.Drain()
}

// Close hard-stops the server: every in-flight solve's context is
// canceled. Call after Drain (or instead of it, for an abortive stop).
func (s *Server) Close() {
	s.Drain()
	s.cancel()
}

// Metrics snapshots the operational counters.
func (s *Server) Metrics() MetricsSnapshot {
	eps := make(map[string]EndpointSnapshot, len(s.metrics))
	for name, m := range s.metrics {
		eps[name] = m.snapshot()
	}
	snap := MetricsSnapshot{
		UptimeMS:          time.Since(s.started).Milliseconds(),
		Draining:          s.draining.Load(),
		Workers:           s.adm.Workers(),
		BusyWorkers:       s.adm.Busy(),
		QueueDepth:        s.adm.QueueDepth(),
		QueueLimit:        s.adm.QueueLimit(),
		WorkerUtilization: s.adm.Utilization(),
		Solves:            s.cache.solves.Load(),
		CacheSize:         s.cache.len(),
		CacheLimit:        s.cfg.CacheEntries,
		SharedWaits:       s.cache.sharedHit.Load(),
		Tenants:           s.adm.Tenants(),
		Endpoints:         eps,
	}
	if s.cfg.Fleet != nil {
		fs := s.cfg.Fleet.Snapshot()
		snap.Fleet = &fs
	}
	if s.gridNode != nil {
		gs := s.gridNode.Snapshot()
		snap.Grid = &gs
	}
	return snap
}

// ---- request plumbing -------------------------------------------------

// call is one /v1 request past its front gate: where it is answered, the
// endpoint counters it moves, when it started and its admission class.
type call struct {
	w      http.ResponseWriter
	m      *endpointMetrics
	start  time.Time
	tenant string
}

// accept is the front gate of every /v1 endpoint, in one order: decode
// the body into req (one pass, see decode.go), count the request under
// endpoint ep, then admit it. A body that does not decode is a 400 even
// while the server drains. Admission accepts nothing new during drain
// (503), and the X-Tenant header must name a configured admission class
// (empty means the default tenant). Distributed solves count under
// "dist", so /metrics can tell fleet traffic apart from in-process solves.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, req request, ep string) (call, bool) {
	c := call{w: w, m: s.metrics[ep], start: time.Now()}
	body, err := readBody(w, r)
	if err == nil {
		err = decodeRequest(body, req)
	}
	if q, ok := req.(*SolveRequest); ok && err == nil && q.Distributed {
		c.m = s.metrics["dist"]
	}
	c.m.requests.Add(1)
	if err != nil {
		s.badRequest(c, err)
		return c, false
	}
	if s.draining.Load() {
		s.finish(c, nil, cacheBypass, grid.ErrDraining)
		return c, false
	}
	tenant, ok := s.adm.Resolve(r.Header.Get("X-Tenant"))
	if !ok {
		s.badRequest(c, fmt.Errorf("unknown tenant %q", r.Header.Get("X-Tenant")))
		return c, false
	}
	c.tenant = tenant
	return c, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone is not actionable
}

// badRequest reports a validation failure. Structured spec errors
// (malformed platform specifications) carry their classification into the
// body so clients see WHICH field is wrong.
func (s *Server) badRequest(c call, err error) {
	c.m.errors.Add(1)
	c.m.latency.observe(time.Since(c.start))
	resp := ErrorResponse{Error: err.Error()}
	var spec *hetero.SpecError
	if errors.As(err, &spec) {
		resp.Code, resp.Field = spec.Code, spec.Field
	}
	writeJSON(c.w, http.StatusBadRequest, resp)
}

// cacheState records how a response body was obtained, for the X-Cache
// header and the per-endpoint hit/miss counters. Deliberately uncached
// endpoints report cacheBypass, which increments neither counter;
// cachePeer marks a body served from another replica's cache (counted
// as a hit — no local solve was charged).
type cacheState uint8

const (
	cacheMiss cacheState = iota
	cacheHit
	cachePeer
	cacheBypass
)

// stateOf maps cache.do's hit flag to a cacheState.
func stateOf(hit bool) cacheState {
	if hit {
		return cacheHit
	}
	return cacheMiss
}

// finish writes the outcome of a cache round-trip, mapping admission
// errors to their status codes. A 429's Retry-After is the live hint of
// the call's tenant (queue depth over observed service rate), not a
// static constant.
func (s *Server) finish(c call, body []byte, state cacheState, err error) {
	w, m := c.w, c.m
	m.latency.observe(time.Since(c.start))
	switch {
	case err == nil:
		switch state {
		case cacheHit:
			m.cacheHits.Add(1)
			w.Header().Set("X-Cache", "hit")
		case cachePeer:
			m.cacheHits.Add(1)
			w.Header().Set("X-Cache", "peer")
		case cacheMiss:
			m.cacheMisses.Add(1)
			w.Header().Set("X-Cache", "miss")
		case cacheBypass:
			w.Header().Set("X-Cache", "bypass")
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	case errors.Is(err, grid.ErrOverload):
		m.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.adm.RetryAfterSeconds(c.tenant)))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	case errors.Is(err, grid.ErrDraining), errors.Is(err, context.Canceled), errors.Is(err, dist.ErrResumable):
		// A resumable distributed solve was interrupted (coordinator
		// shutdown mid-search): the journal keeps the work, so the client
		// should retry against the restarted coordinator rather than treat
		// this as a solver failure.
		m.errors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	default:
		m.errors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

// retryAfterSeconds is the cold-start Retry-After fallback — roughly
// one solve budget, the interval over which a worker slot can have
// turned over. Once a tenant has an observed service rate the WFQ's
// live hint replaces it.
func retryAfterSeconds(cfg Config) int {
	sec := int(cfg.DefaultBudget / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// admitted returns fn run in a worker slot of tenant's queue, under a
// context bounded by budget: the admission every solving endpoint shares.
func (s *Server) admitted(tenant string, budget time.Duration, fn func(ctx context.Context) ([]byte, error)) func() ([]byte, error) {
	return func() ([]byte, error) {
		release, err := s.adm.Acquire(s.baseCtx, tenant)
		if err != nil {
			return nil, err
		}
		defer release()
		ctx, cancel := context.WithTimeout(s.baseCtx, budget)
		defer cancel()
		return fn(ctx)
	}
}

// do routes one cacheable unit of work: local cache, then the key's
// ring owner (read-through), then a local solve whose body is filled
// back to the owner. Without a grid it is exactly the local singleflight
// cache; on the key's owner the solve also holds the node's flight for
// the key (grid.Node.Join).
func (s *Server) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, cacheState, error) {
	n := s.gridNode
	if n == nil {
		body, hit, err := s.cache.do(ctx, key, fn)
		return body, stateOf(hit), err
	}
	owner := n.Owner(key)
	if owner == "" || owner == n.Self() {
		// The owner keeps one flight per key for its own solves and the
		// fill claims it grants peers alike: join a live one and re-read
		// the cache, or register this solve so peers wait for it.
		if body, ok := s.cache.Get(key); ok {
			return body, cacheHit, nil
		}
		done, err := n.Join(ctx, key)
		if err != nil {
			return nil, cacheMiss, err
		}
		if done != nil {
			defer done()
		} else if body, ok := s.cache.Get(key); ok {
			return body, cacheHit, nil
		}
		body, hit, err := s.cache.do(ctx, key, fn)
		return body, stateOf(hit), err
	}
	// Not the owner: a local copy (from an earlier fill or solve) still
	// short-circuits the network.
	if body, ok := s.cache.Get(key); ok {
		return body, cacheHit, nil
	}
	if body, ok := n.Fetch(ctx, owner, key); ok {
		s.cache.Put(key, body)
		return body, cachePeer, nil
	}
	// Peer miss: this replica holds the fill claim (or the owner is
	// down). Solve locally and ship the body back so the owner serves
	// every other replica's next miss.
	body, hit, err := s.cache.do(ctx, key, fn)
	if err == nil && !hit {
		n.FillBack(owner, key, body)
	}
	return body, stateOf(hit), err
}

// ---- canonical cache identity -----------------------------------------

// canonGraph is a request graph reduced to canonical form for caching:
// the relabeled graph the solver runs on, the exact cache identity (a
// SHA-256 of the canonical graph's binary encoding, Graph.AppendKey —
// label-insensitive because the canonical order is, yet collision-free
// unlike the WL fingerprint alone), and the inverse permutation that maps
// canonical task IDs back to the requester's numbering.
type canonGraph struct {
	g        *taskgraph.Graph
	key      string             // hex SHA-256 of the canonical binary encoding
	inv      []taskgraph.TaskID // canonical ID → requester ID
	identity bool               // request already was in canonical order
}

// canonicalize computes the canonical form of a request graph. Task names
// never affect scheduling or appear in responses, and the binary key leaves
// them out, so differently-annotated copies of one instance share a cache
// line. They are still cleared on the canonical copy, because the fleet
// JSON-encodes it for its workers and journal.
func canonicalize(g *taskgraph.Graph) (canonGraph, error) {
	canon, perm, err := g.Canonical()
	if err != nil {
		return canonGraph{}, err
	}
	for id := 0; id < canon.NumTasks(); id++ {
		canon.TaskPtr(taskgraph.TaskID(id)).Name = ""
	}
	cg := canonGraph{g: canon, key: graphKey(canon), identity: true}
	cg.inv = make([]taskgraph.TaskID, len(perm))
	for old, canonID := range perm {
		cg.inv[canonID] = taskgraph.TaskID(old)
		if int(canonID) != old {
			cg.identity = false
		}
	}
	return cg, nil
}

// graphKey is the graph half of a cache key: the hex SHA-256 of the graph's
// binary encoding.
func graphKey(g *taskgraph.Graph) string {
	sum := sha256.Sum256(g.AppendKey(make([]byte, 0, 64+32*(g.NumTasks()+g.NumEdges()))))
	return hex.EncodeToString(sum[:])
}

// ---- endpoints --------------------------------------------------------

// solveKey is the canonical cache identity of one exact-solve class:
// graph digest plus the canonical platform fragment (hetero.Key — exactly
// the legacy "m=<M>" for homogeneous-universal platforms) plus every
// parameter that changes the answer bytes. /v1/solve and /v1/batch share
// it, so their cache lines are one. The workers fragment names the solver
// that runs: 0 for the sequential kernel (workers 0 and 1 alike), N for
// SolveParallel on N > 1 workers.
func solveKey(cg canonGraph, platKey string, params core.Params, req SolveRequest, partitioned bool, budget time.Duration) string {
	distKey := 0
	if req.Distributed {
		distKey = 1
	}
	workersKey := 0
	if req.Workers > 1 {
		workersKey = req.Workers
	}
	dupFreeKey := 0
	if params.DuplicateFree {
		dupFreeKey = 1 // Stats in the answer bytes describe the reduced tree
	}
	modeKey := 0
	if partitioned {
		modeKey = 1
	}
	return fmt.Sprintf("solve|%s|%s|s=%d|b=%d|l=%d|r=%g|w=%d|t=%d|d=%d|df=%d|md=%d",
		cg.key, platKey,
		params.Selection, params.Branching, params.Bound, params.BR,
		workersKey, budget, distKey, dupFreeKey, modeKey)
}

// solveJob is a /v1/solve request or a /v1/batch member reduced to its
// canonical cache identity and the solve that fills it.
type solveJob struct {
	cg      canonGraph
	invProc []platform.Proc // canonical → requester processor, nil when unchanged
	key     string
	run     func() ([]byte, error)
}

// buildSolve validates req and builds its job: the canonical graph and
// platform, the cache key, and a run that takes a slot in the tenant's
// queue and then runs the kernel, the fleet or the partitioned searcher
// under the request budget, answering in the canonical numbering.
func (s *Server) buildSolve(req *SolveRequest, tenant string) (solveJob, error) {
	if req.Distributed {
		if s.cfg.Fleet == nil {
			return solveJob{}, fmt.Errorf("distributed solve requested but server has no fleet (start with -distributed)")
		}
		if req.Workers > 1 {
			return solveJob{}, fmt.Errorf("workers and distributed are mutually exclusive")
		}
	}
	plat, err := req.platform()
	if err != nil {
		return solveJob{}, err
	}
	if req.Distributed && plat.Heterogeneous() {
		// The fleet's lease protocol carries only a processor count.
		return solveJob{}, fmt.Errorf("heterogeneous platforms cannot be distributed")
	}
	partitioned, err := req.partitioned()
	if err != nil {
		return solveJob{}, err
	}
	params, err := req.params()
	if err != nil {
		return solveJob{}, err
	}
	budget, err := budgetFrom(req.BudgetMS, s.cfg)
	if err != nil {
		return solveJob{}, err
	}
	params.Resources.TimeLimit = budget
	cg, err := canonicalize(req.Graph)
	if err != nil {
		return solveJob{}, err
	}
	cp, invProc, platKey := hetero.Canonicalize(plat, cg.inv)
	run := s.admitted(tenant, budget, func(ctx context.Context) ([]byte, error) {
		if partitioned {
			res, err := hetero.SolvePartitioned(ctx, cg.g, cp, hetero.Options{TimeLimit: budget})
			if err != nil {
				return nil, err
			}
			return json.Marshal(partitionedResponse(res))
		}
		var res core.Result
		var err error
		if req.Distributed {
			// The fleet re-canonicalizes internally; cg.g is already
			// canonical so that pass is the identity permutation.
			res, err = s.cfg.Fleet.Solve(ctx, cg.g, cp, params)
		} else {
			res, err = s.solveFn(ctx, cg.g, cp, params, req.Workers)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(solveResponse(res))
	})
	key := solveKey(cg, platKey, params, *req, partitioned, budget)
	return solveJob{cg: cg, invProc: invProc, key: key, run: run}, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	c, ok := s.accept(w, r, &req, "solve")
	if !ok {
		return
	}
	job, err := s.buildSolve(&req, c.tenant)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	body, state, err := s.do(r.Context(), job.key, job.run)
	if err == nil {
		body, err = remapBody(job.cg, job.invProc, body, true)
	}
	s.finish(c, body, state, err)
	s.cfg.Logf("solve m=%d n=%d dist=%v hit=%v %v", req.Procs, req.Graph.NumTasks(), req.Distributed, state != cacheMiss, time.Since(c.start))
}

// maxBatchMembers bounds one /v1/batch request; beyond this the client
// should split the batch (each chunk still dedupes against the shared
// cache, so nothing is lost).
const maxBatchMembers = 256

// handleBatch solves a set of graphs as one request. Members reduce to
// their canonical cache keys and group into isomorphism classes; each
// class runs through the grid/cache path exactly once, and every member
// receives the class answer remapped into its own task numbering. One
// failed class fails the whole batch with that class's status.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	c, ok := s.accept(w, r, &req, "batch")
	if !ok {
		return
	}
	if len(req.Requests) == 0 {
		s.badRequest(c, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Requests) > maxBatchMembers {
		s.badRequest(c, fmt.Errorf("batch has %d members, limit %d", len(req.Requests), maxBatchMembers))
		return
	}

	jobs := make([]solveJob, len(req.Requests))
	rep := map[string]int{} // class key → its first member, for error attribution
	var order []string
	for i := range req.Requests {
		if req.Requests[i].Distributed {
			s.badRequest(c, fmt.Errorf("member %d: distributed solves are not batchable", i))
			return
		}
		job, err := s.buildSolve(&req.Requests[i], c.tenant)
		if err != nil {
			s.badRequest(c, fmt.Errorf("member %d: %w", i, err))
			return
		}
		jobs[i] = job
		if _, seen := rep[job.key]; !seen {
			rep[job.key] = i
			order = append(order, job.key)
		}
	}
	// Deterministic class order: every replica receiving a permutation of
	// the same batch walks the keys identically.
	sort.Strings(order)

	hits := 0
	bodies := make(map[string][]byte, len(order))
	for _, key := range order {
		body, state, err := s.do(r.Context(), key, jobs[rep[key]].run)
		if err != nil {
			s.finish(c, nil, cacheBypass, fmt.Errorf("member %d: %w", rep[key], err))
			return
		}
		if state == cacheHit || state == cachePeer {
			hits++
		}
		bodies[key] = body
	}

	results := make([]SolveResponse, len(req.Requests))
	for i, job := range jobs {
		body, err := remapBody(job.cg, job.invProc, bodies[job.key], true)
		if err != nil {
			s.finish(c, nil, cacheBypass, err)
			return
		}
		if err := json.Unmarshal(body, &results[i]); err != nil {
			s.finish(c, nil, cacheBypass, err)
			return
		}
	}
	c.m.cacheHits.Add(int64(hits))
	c.m.cacheMisses.Add(int64(len(order) - hits))
	c.m.latency.observe(time.Since(c.start))
	writeJSON(w, http.StatusOK, BatchResponse{
		Results:   results,
		Classes:   len(order),
		Deduped:   len(req.Requests) - len(order),
		CacheHits: hits,
	})
	s.cfg.Logf("batch members=%d classes=%d hits=%d %v", len(req.Requests), len(order), hits, time.Since(c.start))
}

func (s *Server) handleAnytime(w http.ResponseWriter, r *http.Request) {
	var req AnytimeRequest
	c, ok := s.accept(w, r, &req, "anytime")
	if !ok {
		return
	}
	plat, err := req.platform()
	if err != nil {
		s.badRequest(c, err)
		return
	}
	if req.Workers < 0 || req.Workers > 256 {
		s.badRequest(c, fmt.Errorf("workers %d outside [0,256]", req.Workers))
		return
	}
	budget, err := budgetFrom(req.BudgetMS, s.cfg)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	cg, err := canonicalize(req.Graph)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	cp, invProc, platKey := hetero.Canonicalize(plat, cg.inv)
	key := fmt.Sprintf("anytime|%s|%s|i=%d|seed=%d|w=%d|t=%d",
		cg.key, platKey, req.ImproveIters, req.Seed, req.Workers, budget)
	body, state, err := s.do(r.Context(), key, s.admitted(c.tenant, budget, func(ctx context.Context) ([]byte, error) {
		res, err := portfolio.SolveContext(ctx, cg.g, cp, portfolio.Options{
			Budget:       budget,
			ImproveIters: req.ImproveIters,
			Workers:      req.Workers,
			Seed:         req.Seed,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(anytimeResponse(res))
	}))
	if err == nil {
		body, err = remapBody(cg, invProc, body, false)
	}
	s.finish(c, body, state, err)
	s.cfg.Logf("anytime m=%d n=%d hit=%v %v", plat.M, req.Graph.NumTasks(), state != cacheMiss, time.Since(c.start))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var req ListRequest
	c, ok := s.accept(w, r, &req, "list")
	if !ok {
		return
	}
	plat, err := req.platform()
	if err != nil {
		s.badRequest(c, err)
		return
	}
	pol, explicit, err := parseListPolicy(req.Policy)
	if err != nil {
		s.badRequest(c, err)
		return
	}

	// Polynomial-time work: cached and de-duplicated but not admitted
	// through the worker pool — a list schedule costs less than queueing.
	cg, err := canonicalize(req.Graph)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	cp, invProc, platKey := hetero.Canonicalize(plat, cg.inv)
	key := fmt.Sprintf("list|%s|%s|p=%d|x=%v", cg.key, platKey, pol, explicit)
	body, state, err := s.do(r.Context(), key, func() ([]byte, error) {
		var res listsched.Result
		var err error
		if explicit {
			res, err = listsched.Schedule(cg.g, cp, pol)
		} else {
			res, err = listsched.Best(cg.g, cp)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(ListResponse{
			Lmax:     res.Lmax,
			Makespan: res.Schedule.Makespan(),
			Policy:   res.Policy.String(),
			Schedule: res.Schedule.Placements(),
		})
	})
	if err == nil {
		body, err = remapBody(cg, invProc, body, false)
	}
	s.finish(c, body, state, err)
	s.cfg.Logf("list m=%d n=%d hit=%v %v", plat.M, req.Graph.NumTasks(), state != cacheMiss, time.Since(c.start))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	c, ok := s.accept(w, r, &req, "analyze")
	if !ok {
		return
	}
	plat, err := req.platform()
	if err != nil {
		s.badRequest(c, err)
		return
	}

	// The analyze response is label-free, so no placement remap is needed —
	// but the cache identity is still the exact canonical bytes: the WL
	// fingerprint alone could conflate WL-equivalent non-isomorphic graphs
	// whose critical paths differ.
	cg, err := canonicalize(req.Graph)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	cp, _, platKey := hetero.Canonicalize(plat, cg.inv)
	key := fmt.Sprintf("analyze|%s|%s", cg.key, platKey)
	body, state, err := s.do(r.Context(), key, func() ([]byte, error) {
		rep, err := analysis.Analyze(cg.g, cp)
		if err != nil {
			return nil, err
		}
		return json.Marshal(AnalyzeResponse{
			TotalWork:    rep.TotalWork,
			Utilization:  rep.Utilization,
			CriticalPath: rep.CriticalPath,
			DemandLmax:   rep.DemandLmax,
			PathLmax:     rep.PathLmax,
			Lower:        rep.Lower,
			Infeasible:   rep.Infeasible(),
		})
	})
	s.finish(c, body, state, err)
	s.cfg.Logf("analyze m=%d n=%d hit=%v %v", plat.M, req.Graph.NumTasks(), state != cacheMiss, time.Since(c.start))
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	var req RecoverRequest
	c, ok := s.accept(w, r, &req, "recover")
	if !ok {
		return
	}
	plat, err := req.platform()
	if err != nil {
		s.badRequest(c, err)
		return
	}
	if plat.Heterogeneous() {
		// The rescue pipeline replans on the original platform; its
		// residual construction is not heterogeneity-aware yet.
		s.badRequest(c, fmt.Errorf("heterogeneous platforms are not supported on /v1/recover"))
		return
	}
	if req.Workers < 0 || req.Workers > 256 {
		s.badRequest(c, fmt.Errorf("workers %d outside [0,256]", req.Workers))
		return
	}
	budget, err := budgetFrom(req.BudgetMS, s.cfg)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	static, err := scheduleFromPlacements(req.Graph, plat, req.Schedule)
	if err != nil {
		s.badRequest(c, err)
		return
	}
	fs := make([]faults.Fault, 0, len(req.Faults))
	for _, spec := range req.Faults {
		f, err := spec.fault()
		if err != nil {
			s.badRequest(c, err)
			return
		}
		fs = append(fs, f)
	}
	sc := &faults.Scenario{Faults: fs}
	if err := sc.Validate(req.Graph.NumTasks(), plat.M); err != nil {
		s.badRequest(c, err)
		return
	}

	// Recovery is stateful (schedule + scenario vary per call), so it goes
	// through admission control but not the cache — finish gets cacheBypass
	// so the endpoint perturbs neither the hit nor the miss counter.
	body, err := s.admitted(c.tenant, budget, func(ctx context.Context) ([]byte, error) {
		out, err := rescue.Recover(ctx, static, sc, nil, rescue.Options{Budget: budget, Workers: req.Workers})
		if err != nil {
			return nil, err
		}
		return json.Marshal(recoverResponse(out))
	})()
	s.finish(c, body, cacheBypass, err)
	s.cfg.Logf("recover m=%d n=%d faults=%d %v", plat.M, req.Graph.NumTasks(), len(fs), time.Since(c.start))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", UptimeMS: time.Since(s.started).Milliseconds()}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// scheduleFromPlacements replays a wire schedule onto a fresh Schedule and
// validates it (completeness, capacity, precedence) before recovery.
func scheduleFromPlacements(g *taskgraph.Graph, plat platform.Platform, pls []sched.Placement) (*sched.Schedule, error) {
	if len(pls) == 0 {
		return nil, fmt.Errorf("missing schedule")
	}
	s := sched.NewSchedule(g, plat)
	for _, pl := range pls {
		if pl.Task < 0 || int(pl.Task) >= g.NumTasks() {
			return nil, fmt.Errorf("placement task %d out of range", pl.Task)
		}
		if pl.Proc < 0 || int(pl.Proc) >= plat.M {
			return nil, fmt.Errorf("placement proc %d out of range", pl.Proc)
		}
		if s.Placed(pl.Task) {
			return nil, fmt.Errorf("task %d placed twice", pl.Task)
		}
		if pl.Start < 0 {
			return nil, fmt.Errorf("task %d starts at negative time %d", pl.Task, pl.Start)
		}
		s.Set(pl.Task, pl.Proc, pl.Start)
		if got := s.Finish(pl.Task); got != pl.Finish {
			return nil, fmt.Errorf("task %d finish %d inconsistent with start+exec=%d", pl.Task, pl.Finish, got)
		}
	}
	if !s.Complete() {
		return nil, fmt.Errorf("schedule places %d of %d tasks", s.NumPlaced(), g.NumTasks())
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return s, nil
}
