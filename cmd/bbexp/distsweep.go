package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// The sweep axes; tests shrink them.
var (
	distSweepWorkers = []int{1, 2, 4, 8}
	distSweepSeeds   = []int64{903, 931}

	// distSweepStragglerDelay slows one worker per fabric (when there is
	// more than one) by this much per slice, so the static-vs-mitigated
	// comparison has an actual straggler to mitigate.
	distSweepStragglerDelay = 120 * time.Millisecond
)

// distSweepCombos are the parameter combinations swept. Both are exact,
// so every distributed point must reproduce the sequential cost — the
// figure measures wall-clock and search effort, never solution quality.
var distSweepCombos = []struct {
	name string
	p    core.Params
}{
	{"S=LLB/L=LB1", core.Params{Selection: core.SelectLLB}},
	{"S=LIFO/L=LB0", core.Params{Bound: core.BoundLB0}},
}

// DistSweep is the distributed-fabric experiment: hard pinned instances
// (paper-default workloads whose sequential search floods an Lmax
// plateau) are solved by a loopback coordinator/worker fleet swept over
// 1, 2, 4 and 8 workers, against a single-node core.Solve baseline.
// Each parameter combo runs three times — a "static" fabric (speculative
// re-dispatch off), a "spec" fabric (on), and a "dupfree" fabric (spec
// plus duplicate-free generation, as bbserved sends every distributed
// solve) — with one artificial straggler worker per multi-worker fleet,
// so the trio measures what latency-quantile speculation buys against a
// slow machine and what duplicate-free generation removes from the
// distributed search.
//
// The figure's columns are re-purposed: Vertices holds the wall-clock
// speedup (sequential wall / distributed wall, >1 means the fabric wins),
// Lateness the searched-vertex ratio (distributed expanded / sequential
// expanded — the redundancy the frontier split pays, or the pruning it
// gains; comparing the "dupfree" series against "spec" at each worker
// count reads off the duplicate-free tree's reduction directly, since
// both share the one knob-off sequential baseline), MaxAS the
// Lively-style load-balance signal: the spread between
// the busiest and idlest worker's busy fraction (0 = perfectly balanced,
// →1 = one worker does everything while others starve). Per-worker slice
// service-time quantiles and broadcast/speculation counters go to Logf.
//
// On a single-CPU host any speedup is a branch-and-bound search-order
// anomaly, not parallelism: every frontier slice starts from the EDF
// upper bound, deep slices find strong incumbents long before the
// sequential best-first order would, and the broadcast prunes the
// plateau flood the sequential LLB search drowns in. The ratio column
// makes this legible — speedup tracks expanded-vertex savings, not
// worker count.
//
// Like serve-sweep this measures wall-clock, so cfg.Journal is ignored.
func DistSweep(cfg exp.Config) (exp.Figure, error) {
	if err := cfg.Validate(); err != nil {
		return exp.Figure{}, err
	}

	type baseline struct {
		g    *taskgraph.Graph
		plat platform.Platform
		wall time.Duration
		res  core.Result
	}
	modes := []struct {
		name     string
		mitigate bool
		dupFree  bool
	}{
		{"static", false, false},
		{"spec", true, false},
		// Dupfree keeps speculation on (the production configuration) and
		// turns on duplicate-free generation, so its searched-vertex ratio
		// against the same sequential baseline isolates what the rules
		// remove from the distributed search.
		{"dupfree", true, true},
	}

	series := make([]exp.Series, 0, len(distSweepCombos)*len(modes))
	for _, combo := range distSweepCombos {
		p := combo.p
		p.Resources.TimeLimit = cfg.TimeLimit

		bases := make([]baseline, len(distSweepSeeds))
		for ii, seed := range distSweepSeeds {
			g, err := sweepGraph(cfg, seed)
			if err != nil {
				return exp.Figure{}, err
			}
			plat := platform.New(3)
			t0 := time.Now()
			res, err := core.Solve(g, plat, p)
			if err != nil {
				return exp.Figure{}, fmt.Errorf("dist sweep baseline seed %d: %v", seed, err)
			}
			bases[ii] = baseline{g: g, plat: plat, wall: time.Since(t0), res: res}
			if cfg.Logf != nil {
				cfg.Logf("exp: dist-sweep %s seed=%d sequential: cost=%d expanded=%d %v",
					combo.name, seed, res.Cost, res.Stats.Expanded, bases[ii].wall.Round(time.Millisecond))
			}
		}

		for _, mode := range modes {
			variant := combo.name + " " + mode.name
			mp := p
			mp.DuplicateFree = mode.dupFree
			s := exp.Series{Variant: variant, Points: make([]exp.Point, len(distSweepWorkers))}
			for j, workers := range distSweepWorkers {
				pt := &s.Points[j]
				*pt = exp.Point{Variant: variant, X: float64(workers)}
				for ii, base := range bases {
					res, wall, load, err := distSolve(base.g, base.plat, mp, workers, mode.mitigate)
					if err != nil {
						return exp.Figure{}, fmt.Errorf("dist sweep %s w=%d: %v", variant, workers, err)
					}
					if res.Cost != base.res.Cost {
						return exp.Figure{}, fmt.Errorf("dist sweep %s w=%d seed %d: distributed cost %d != sequential %d",
							variant, workers, distSweepSeeds[ii], res.Cost, base.res.Cost)
					}
					pt.Vertices.Add(base.wall.Seconds() / wall.Seconds())
					pt.Lateness.Add(float64(res.Stats.Expanded) / float64(base.res.Stats.Expanded))
					pt.MaxAS.Add(load.spread)
					pt.Runs++
					if cfg.Logf != nil {
						cfg.Logf("exp: dist-sweep %s w=%d seed=%d: speedup %.2f, vertex ratio %.2f, busy spread %.2f, broadcasts %d, speculated %d, re-dispatched %d (%v)",
							variant, workers, distSweepSeeds[ii],
							base.wall.Seconds()/wall.Seconds(),
							float64(res.Stats.Expanded)/float64(base.res.Stats.Expanded),
							load.spread, load.broadcasts, load.speculated, load.redispatched,
							wall.Round(time.Millisecond))
						if mode.dupFree {
							cfg.Logf("exp: dist-sweep %s w=%d seed=%d:   skipped %d, generated %d (sequential %d)",
								variant, workers, distSweepSeeds[ii],
								res.Stats.Skipped, res.Stats.Generated, base.res.Stats.Generated)
						}
						for _, wl := range load.workers {
							cfg.Logf("exp: dist-sweep %s w=%d seed=%d:   worker %q busy=%.2f service p50=%.1fms p90=%.1fms reports=%d",
								variant, workers, distSweepSeeds[ii],
								wl.Name, wl.BusyFraction, wl.ServiceP50MS, wl.ServiceP90MS, wl.Reports)
						}
					}
				}
			}
			series = append(series, s)
		}
	}

	return exp.Figure{
		ID:     "dist-sweep",
		Title:  "distributed B&B fabric: speedup, search overhead and load balance vs worker count",
		XLabel: "workers",
		Series: series,

		VertexLabel:   "speedup (seq wall / dist wall)",
		LatenessLabel: "searched-vertex ratio (dist / seq)",
		ASLabel:       "busy-fraction spread (max - min)",
		RunsLabel:     "instances",
	}, nil
}

// distLoad is the per-solve load-balance readout distSolve extracts from
// the fleet before tearing it down.
type distLoad struct {
	spread       float64 // busiest minus idlest worker busy fraction
	broadcasts   int64
	speculated   int64
	redispatched int64
	workers      []dist.WorkerLoad
}

// distSolve stands up a fresh coordinator on a loopback socket plus
// `workers` fleet workers, runs one distributed solve, and tears
// everything down. With more than one worker the first is an artificial
// straggler (distSweepStragglerDelay per slice); mitigate toggles the
// coordinator's speculative re-dispatch against it.
func distSolve(g *taskgraph.Graph, plat platform.Platform, p core.Params, workers int, mitigate bool) (core.Result, time.Duration, distLoad, error) {
	fleet := dist.NewFleet(dist.Config{
		RetryAfter:    2 * time.Millisecond,
		NoSpeculation: !mitigate,
		// The janitor (eviction + speculation) ticks at Heartbeat; the
		// default (LeaseTTL/3 = 1s) never fires inside these sub-second
		// solves, so speculation could not trigger at all. A tight
		// heartbeat lets the coordinator notice the straggler mid-solve
		// while the default 3s LeaseTTL keeps live workers unevicted.
		Heartbeat: 5 * time.Millisecond,
	})
	lb, err := listen()
	if err != nil {
		return core.Result{}, 0, distLoad{}, err
	}
	lb.serve(fleet.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wcfg := dist.WorkerConfig{
			Coordinator: lb.url,
			Name:        fmt.Sprintf("sweep-%d", i),
			Poll:        2 * time.Millisecond,
		}
		if i == 0 && workers > 1 {
			wcfg.Name = "straggler"
			wcfg.SliceDelay = distSweepStragglerDelay
		}
		w := dist.NewWorker(wcfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}

	t0 := time.Now()
	res, err := fleet.Solve(context.Background(), g, plat, p)
	wall := time.Since(t0)

	// Read the load signal before teardown so busy fractions reflect the
	// solve window, not the idle tail.
	snap := fleet.Snapshot()
	load := distLoad{
		broadcasts:   snap.IncumbentBroadcasts,
		speculated:   snap.SlicesSpeculated,
		redispatched: snap.SlicesRedispatched,
		workers:      snap.Load,
	}
	if len(snap.Load) > 0 {
		lo, hi := snap.Load[0].BusyFraction, snap.Load[0].BusyFraction
		for _, wl := range snap.Load[1:] {
			lo = math.Min(lo, wl.BusyFraction)
			hi = math.Max(hi, wl.BusyFraction)
		}
		load.spread = hi - lo
	}

	cancel()
	wg.Wait()
	lb.stop()
	if err != nil {
		return core.Result{}, 0, distLoad{}, err
	}
	return res, wall, load, nil
}
