package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// The sweep axes; tests shrink them.
var (
	gridSweepReplicas = []int{1, 2, 4}

	// gridSweepGraphs is the number of distinct instances per tenant; each
	// phase issues one solve per (tenant, instance) pair.
	gridSweepGraphs = 4
)

// gridSweepTenants are the admission classes every swept fleet serves:
// a 2:1 weight split, so the per-tenant latency columns show whether the
// heavier class pays a cache penalty (it must not — the cache is keyed
// by canonical graph, never by tenant).
var gridSweepTenants = []grid.Tenant{
	{Name: "gold", Weight: 2},
	{Name: "free", Weight: 1},
}

// GridSweep is the multi-tenant serving-tier experiment: an in-process
// replica fleet is swept over 1, 2 and 4 replicas, twice per size — once
// peered through the cache grid and once as isolated servers — and each
// fleet serves two phases of tenant-labelled solve traffic:
//
//   - cold: one solve per (tenant, instance) pair, round-robin across
//     replicas — every key is new, so the hit rate is the floor;
//   - replay: the same requests again, each deliberately sent to a
//     different replica than before. A peered fleet serves them all from
//     cache (locally or via an owner fetch); isolated replicas above one
//     replica miss and re-solve, which is exactly the cost the grid
//     removes.
//
// The figure's columns are re-purposed: Vertices holds the cold-phase
// cache hit rate, Lateness the replay-phase hit rate (the peer-warmed
// number the grid exists for), and MaxAS the replay-phase per-tenant p99
// latency in milliseconds. Series are (mode, tenant) pairs, so the 2:1
// weight split is visible as two curves per mode.
func GridSweep(cfg exp.Config) (exp.Figure, error) {
	if err := cfg.Validate(); err != nil {
		return exp.Figure{}, err
	}
	budget := cfg.TimeLimit
	if budget <= 0 {
		budget = 2 * time.Second
	}

	// One disjoint instance set per tenant: the phases measure cache
	// behaviour per class, so classes must not warm each other's keys.
	var jobs []gridSweepJob
	for ti, ten := range gridSweepTenants {
		for i := 0; i < gridSweepGraphs; i++ {
			body, err := solveBody(cfg, cfg.Seed+int64(ti*gridSweepGraphs+i), 4, budget)
			if err != nil {
				return exp.Figure{}, err
			}
			jobs = append(jobs, gridSweepJob{tenant: ten.Name, body: body})
		}
	}

	modes := []struct {
		name   string
		peered bool
	}{
		{"grid", true},
		{"isolated", false},
	}

	// series[(mode, tenant)] indexed in declaration order.
	series := make([]exp.Series, 0, len(modes)*len(gridSweepTenants))
	idx := map[string]int{}
	for _, mode := range modes {
		for _, ten := range gridSweepTenants {
			variant := fmt.Sprintf("%s tenant=%s(w=%g)", mode.name, ten.Name, ten.Weight)
			idx[mode.name+"|"+ten.Name] = len(series)
			series = append(series, exp.Series{
				Variant: variant,
				Points:  make([]exp.Point, len(gridSweepReplicas)),
			})
		}
	}

	for j, replicas := range gridSweepReplicas {
		for _, mode := range modes {
			urls, stop, err := startSweepFleet(replicas, mode.peered)
			if err != nil {
				return exp.Figure{}, err
			}
			// Cold phase: job i hits replica i%R. Replay phase: the same
			// job hits the next replica over, so at R>1 the serving
			// replica never solved the key itself.
			cold, err := gridSweepPhase(urls, jobs, 0)
			if err == nil {
				var warm map[string]*gridSweepAgg
				warm, err = gridSweepPhase(urls, jobs, 1)
				if err == nil {
					for _, ten := range gridSweepTenants {
						pt := &series[idx[mode.name+"|"+ten.Name]].Points[j]
						pt.Variant = series[idx[mode.name+"|"+ten.Name]].Variant
						pt.X = float64(replicas)
						c, w := cold[ten.Name], warm[ten.Name]
						pt.Vertices.Add(c.hitRate())
						pt.Lateness.Add(w.hitRate())
						pt.MaxAS.Add(w.p99().Seconds() * 1e3)
						pt.Runs = c.requests + w.requests
						if cfg.Logf != nil {
							cfg.Logf("exp: grid-sweep %s r=%d tenant=%s: cold hit %.2f, replay hit %.2f, replay p99 %.1fms",
								mode.name, replicas, ten.Name, c.hitRate(), w.hitRate(),
								w.p99().Seconds()*1e3)
						}
					}
				}
			}
			stop()
			if err != nil {
				return exp.Figure{}, fmt.Errorf("grid sweep %s r=%d: %v", mode.name, replicas, err)
			}
		}
	}

	return exp.Figure{
		ID:     "grid-sweep",
		Title:  "multi-tenant replica grid: cold vs peer-warmed hit rate and per-tenant tail latency",
		XLabel: "replicas",
		Series: series,

		VertexLabel:   "cold-phase cache hit rate",
		LatenessLabel: "replay-phase hit rate (peer-warmed)",
		ASLabel:       "replay p99 latency (ms)",
		RunsLabel:     "requests",
	}, nil
}

// gridSweepJob is one prepared tenant-labelled solve body.
type gridSweepJob struct {
	tenant string
	body   []byte
}

// gridSweepAgg accumulates one tenant's phase outcomes.
type gridSweepAgg struct {
	requests  int
	hits      int // X-Cache hit or peer
	latencies []time.Duration
	costs     map[string]taskgraph.Time // body hash → reported Lmax, for cross-phase agreement
}

func (a *gridSweepAgg) hitRate() float64 {
	if a.requests == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.requests)
}

func (a *gridSweepAgg) p99() time.Duration {
	if len(a.latencies) == 0 {
		return 0
	}
	sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
	i := int(0.99 * float64(len(a.latencies)))
	if i >= len(a.latencies) {
		i = len(a.latencies) - 1
	}
	return a.latencies[i]
}

// gridSweepPhase replays every job once, sending job i to replica
// (i+rotate) mod len(urls), and aggregates per tenant. Any non-200 or a
// cost disagreeing with an earlier answer for the same body fails the
// phase: the grid must change where a result comes from, never what it
// is.
func gridSweepPhase(urls []string, jobs []gridSweepJob, rotate int) (map[string]*gridSweepAgg, error) {
	out := map[string]*gridSweepAgg{}
	for _, ten := range gridSweepTenants {
		out[ten.Name] = &gridSweepAgg{costs: map[string]taskgraph.Time{}}
	}
	client := &http.Client{}
	for i, jb := range jobs {
		url := urls[(i+rotate)%len(urls)]
		hr, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(jb.body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Tenant", jb.tenant)
		t0 := time.Now()
		resp, err := client.Do(hr)
		if err != nil {
			return nil, err
		}
		var sr server.SolveResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		_ = resp.Body.Close()
		lat := time.Since(t0)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("job %d: status %d", i, resp.StatusCode)
		}
		if err != nil {
			return nil, fmt.Errorf("job %d: decode: %v", i, err)
		}
		agg := out[jb.tenant]
		agg.requests++
		agg.latencies = append(agg.latencies, lat)
		switch resp.Header.Get("X-Cache") {
		case "hit", "peer":
			agg.hits++
		}
		key := string(jb.body)
		if prev, ok := agg.costs[key]; ok && prev != sr.Lmax {
			return nil, fmt.Errorf("job %d: cost %d disagrees with earlier answer %d", i, sr.Lmax, prev)
		}
		agg.costs[key] = sr.Lmax
	}
	client.CloseIdleConnections()
	return out, nil
}

// startSweepFleet stands up `replicas` in-process servers on loopback
// listeners — peered through the cache grid or isolated — and returns
// their base URLs plus a teardown closure.
func startSweepFleet(replicas int, peered bool) ([]string, func(), error) {
	lbs := make([]*loopback, replicas)
	urls := make([]string, replicas)
	for i := range lbs {
		lb, err := listen()
		if err != nil {
			for _, l := range lbs[:i] {
				_ = l.ln.Close() // never served
			}
			return nil, nil, err
		}
		lbs[i], urls[i] = lb, lb.url
	}

	srvs := make([]*server.Server, replicas)
	nodes := make([]*grid.Node, replicas)
	for i := range srvs {
		cfg := server.Config{
			Workers:       2,
			DefaultBudget: 5 * time.Second,
			Tenants:       gridSweepTenants,
		}
		if peered && replicas > 1 {
			peers := make([]string, 0, replicas-1)
			for k, u := range urls {
				if k != i {
					peers = append(peers, u)
				}
			}
			nodes[i] = grid.NewNode(grid.NodeConfig{Self: urls[i], Peers: peers})
			cfg.Grid = nodes[i]
		}
		srvs[i] = server.New(cfg)
		lbs[i].serve(srvs[i].Handler())
	}

	stop := func() {
		for i := range srvs {
			lbs[i].stop()
			srvs[i].Close()
			if nodes[i] != nil {
				nodes[i].Close()
			}
		}
	}
	return urls, stop, nil
}
