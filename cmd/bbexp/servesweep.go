package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deadline"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// sweepConcurrency is the client-count sweep; a test shrinks it.
var sweepConcurrency = []int{1, 2, 4, 8}

// ServeSweep is the serving-layer experiment: cold-cache vs warm-cache
// throughput of a live bbserved instance under a closed-loop load, swept
// over client concurrency. Per sweep point a fresh server is started on a
// loopback socket and a pool of distinct workload instances (cfg.Workload,
// the paper's 12–16-task default) is replayed twice through /v1/solve:
//
//	"cold" — first pass, every request is a cache miss and runs the
//	         exact solver under cfg.TimeLimit;
//	"warm" — second pass, identical requests, served from the result
//	         cache without touching the worker pool.
//
// The figure's columns are re-purposed: Vertices holds throughput in
// req/s, Lateness the per-request latency in µs, MaxAS the cache hits of
// the pass. The warm series dominating the cold one is the cache earning
// its keep; the gap is the solve cost the cache amortizes away.
//
// Unlike the solver figures this experiment measures wall-clock behaviour,
// so cfg.Journal is ignored: journaled timings from a previous process
// would not be comparable, let alone byte-identical.
func ServeSweep(cfg exp.Config) (exp.Figure, error) {
	if err := cfg.Validate(); err != nil {
		return exp.Figure{}, err
	}
	procs := cfg.Procs[len(cfg.Procs)-1]
	requests := 4 * cfg.Runs
	if requests < 8 {
		requests = 8
	}

	bodies, err := sweepBodies(cfg, procs, requests)
	if err != nil {
		return exp.Figure{}, err
	}

	passes := []string{"cold", "warm"}
	series := make([]exp.Series, len(passes))
	for i, name := range passes {
		series[i] = exp.Series{Variant: name, Points: make([]exp.Point, len(sweepConcurrency))}
		for j, c := range sweepConcurrency {
			series[i].Points[j] = exp.Point{Variant: name, X: float64(c)}
		}
	}

	for j, clients := range sweepConcurrency {
		lb, err := listen()
		if err != nil {
			return exp.Figure{}, fmt.Errorf("serve sweep: %v", err)
		}
		srv := server.New(server.Config{
			Workers:       clients,
			QueueDepth:    requests, // admission control is not under test here
			DefaultBudget: cfg.TimeLimit,
			MaxBudget:     cfg.TimeLimit,
		})
		lb.serve(srv.Handler())

		for i := range passes {
			pt := &series[i].Points[j]
			var res passResult
			res, err = firePass(lb.url, bodies, clients)
			if err == nil && res.failures > 0 {
				err = fmt.Errorf("%d of %d requests failed", res.failures, requests)
			}
			if err != nil {
				err = fmt.Errorf("serve sweep c=%d %s pass: %v", clients, passes[i], err)
				break
			}
			pt.Vertices.Add(float64(requests) / res.wall.Seconds())
			for _, l := range res.latencies {
				pt.Lateness.Add(float64(l.Microseconds()))
			}
			pt.MaxAS.AddInt(res.hits)
			pt.Runs = requests
			if cfg.Logf != nil {
				cfg.Logf("exp: serve-sweep c=%d %s: %.1f req/s, %d/%d cache hits",
					clients, passes[i], float64(requests)/res.wall.Seconds(), res.hits, requests)
			}
		}
		lb.stop()
		srv.Close()
		if err != nil {
			return exp.Figure{}, err
		}
	}

	return exp.Figure{
		ID:     "serve-sweep",
		Title:  fmt.Sprintf("bbserved throughput: cold vs warm result cache (m=%d, %d requests)", procs, requests),
		XLabel: "concurrent clients",
		Series: series,

		VertexLabel:   "throughput (req/s)",
		LatenessLabel: "request latency (µs)",
		ASLabel:       "cache hits",
		RunsLabel:     "requests",
	}, nil
}

// sweepBodies prepares the replay pool: distinct instances, marshaled
// /v1/solve bodies.
func sweepBodies(cfg exp.Config, procs, requests int) ([][]byte, error) {
	bodies := make([][]byte, requests)
	for i := range bodies {
		body, err := solveBody(cfg, cfg.Seed+int64(i), procs, cfg.TimeLimit)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// sweepGraph is the serving figures' instance: cfg's workload drawn from
// seed, with deadlines sliced under cfg's policy.
func sweepGraph(cfg exp.Config, seed int64) (*taskgraph.Graph, error) {
	g := gen.New(cfg.Workload, seed).Graph()
	if err := deadline.Assign(g, cfg.Workload.Laxity, cfg.Slicing); err != nil {
		return nil, err
	}
	return g, nil
}

// solveBody marshals sweepGraph(cfg, seed) as a /v1/solve body on procs
// processors under budget.
func solveBody(cfg exp.Config, seed int64, procs int, budget time.Duration) ([]byte, error) {
	g, err := sweepGraph(cfg, seed)
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.SolveRequest{
		GraphRequest: server.GraphRequest{Graph: g, Procs: procs},
		BudgetMS:     budget.Milliseconds(),
	})
}

// loopback is an HTTP server on a 127.0.0.1 port the kernel picks. listen
// binds the port, so a fleet can hand every member's URL to every member
// before any handler exists; serve starts serving and stop closes the
// server and joins its Serve goroutine.
type loopback struct {
	url  string
	ln   net.Listener
	hs   http.Server
	done chan struct{}
}

func listen() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &loopback{url: "http://" + ln.Addr().String(), ln: ln, done: make(chan struct{})}, nil
}

func (l *loopback) serve(h http.Handler) {
	l.hs.Handler = h
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(l.ln) // returns once stop closes the server
	}()
}

func (l *loopback) stop() {
	_ = l.hs.Close() // loopback listener teardown
	<-l.done
}

// passResult is one measured closed-loop pass.
type passResult struct {
	wall      time.Duration
	hits      int64
	failures  int64
	latencies []time.Duration
}

// firePass replays every body once, closed-loop with `clients` workers.
func firePass(base string, bodies [][]byte, clients int) (passResult, error) {
	var (
		next     atomic.Int64
		hits     atomic.Int64
		failures atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
	)
	client := &http.Client{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					failures.Add(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close() // drained above
				d := time.Since(t0)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				} else if resp.Header.Get("X-Cache") == "hit" {
					hits.Add(1)
				}
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return passResult{
		wall:      time.Since(start),
		hits:      hits.Load(),
		failures:  failures.Load(),
		latencies: lats,
	}, firstErr
}
