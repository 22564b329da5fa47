package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/hetero"
	"repro/internal/periodic"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// PartitionSweep is the scenario-matrix experiment: global (migrating)
// branch-and-bound versus partitioned scheduling — B&B over the
// task→processor assignment with per-processor EDF dispatch — head to
// head on a heterogeneous platform, across two workload families:
//
//	"dag"      — the paper's layered precedence graphs (shrunk to 8–10
//	             tasks so the m^n assignment space stays exhaustible),
//	             deadline-sliced with the configured policy;
//	"sporadic" — an independent periodic task set (UUniFast, harmonic
//	             menu) whose arrivals are stretched sporadically and
//	             unrolled over an explicit release plan, i.e. the
//	             one-shot image of one concrete sporadic scenario.
//
// The platform at each sweep point has m processors with alternating
// speed factors 1, ½, 1, ½, … (a fast/slow mix) and universal affinity,
// so both modes see the same related-machines model. In this
// non-preemptive one-shot model every task occupies exactly one
// processor in both modes; what partitioned mode gives up is the
// ORDER — per-processor dispatch is fixed to EDF rather than searched —
// so any cost gap is the price of EDF dispatch under a chosen
// assignment. Both graphs are paired: at one sweep position the two
// modes solve the identical instance.
//
// Columns: Vertices holds search effort (global: generated vertices;
// partitioned: visited + pruned assignment vertices), Lateness the
// achieved Lmax, MaxAS the global active-set high-water mark (0 for
// partitioned, whose DFS frontier is the assignment prefix). Censored
// counts timed-out searches.
//
// Expected shape: partitioned lateness ≥ global lateness pointwise
// (every partitioned-EDF schedule is one of the global search's
// feasible schedules), with the gap concentrated where contention makes
// the dispatch order matter; partitioned search effort stays small on
// the sporadic family (iteration chains pin most of the assignment).
func PartitionSweep(cfg Config) (Figure, error) {
	type cell struct {
		family      string
		partitioned bool
	}
	cells := []cell{
		{family: "dag", partitioned: false},
		{family: "dag", partitioned: true},
		{family: "sporadic", partitioned: false},
		{family: "sporadic", partitioned: true},
	}
	names := make([]string, len(cells))
	keyVariants := make([]Variant, len(cells))
	for i, c := range cells {
		mode := "global"
		if c.partitioned {
			mode = "partitioned"
		}
		names[i] = mode + " / " + c.family
		keyVariants[i] = Variant{Name: "partition:" + names[i]}
	}

	// The DAG family reuses the configured workload with the task count
	// pinned to 8–10 (the partitioned mode explores up to m^n
	// assignments, and the committed figure must exhaust, not censor)
	// and the laxity tightened to 1.2: at the default 1.5 the fast/slow
	// platform makes every instance trivially feasible and both modes
	// coincide at their first incumbent.
	dagW := cfg.Workload
	dagW.NMin, dagW.NMax = 8, 10
	dagW.Laxity = 1.2
	pts := make([]sweepPoint, len(cfg.Procs))
	for j, m := range cfg.Procs {
		pts[j] = sweepPoint{x: float64(m), workload: dagW, laxity: dagW.Laxity, procs: m}
	}

	series, err := sweep(cfg, names, keyVariants, pts, func(pt sweepPoint, posSeed int64, gg *gen.Generator, row []Point) error {
		m := pt.procs
		plat := platform.New(m)
		plat.Speed = make([]float64, m)
		for q := range plat.Speed {
			plat.Speed[q] = 1 / float64(1+q&1) // 1, ½, 1, ½, …
		}

		// Sporadic family: ~45% utilization per unit-speed processor,
		// stretched arrivals over two base periods.
		pp := gen.PeriodicParams{
			N: 4, TotalUtil: 0.45 * float64(m),
			Periods:      []taskgraph.Time{20, 40},
			DeadlineFrac: 1.0,
		}
		rp := gen.ReleaseParams{Horizon: 40, StretchFrac: 0.3}

		for run := 0; run < cfg.Runs; run++ {
			graphs := make(map[string]*taskgraph.Graph, 2)

			g := gg.Graph()
			if err := deadline.Assign(g, pt.laxity, cfg.Slicing); err != nil {
				return err
			}
			graphs["dag"] = g

			ts, err := gg.PeriodicTaskSet(pp)
			if err != nil {
				return err
			}
			rel, err := gg.Releases(ts, rp)
			if err != nil {
				return err
			}
			ex, err := periodic.UnrollReleases(ts, rel)
			if err != nil {
				return err
			}
			graphs["sporadic"] = ex.Graph

			for i, c := range cells {
				p := &row[i]
				ig := graphs[c.family]
				if c.partitioned {
					res, err := hetero.SolvePartitioned(context.Background(), ig, plat,
						hetero.Options{TimeLimit: cfg.TimeLimit})
					if err != nil {
						return fmt.Errorf("exp: partition sweep posSeed=%d run=%d: %w", posSeed, run, err)
					}
					if !res.Optimal {
						p.Censored++
						continue
					}
					p.Vertices.AddInt(res.Stats.Visited + res.Stats.Pruned)
					p.Lateness.AddInt(int64(res.Cost))
					p.MaxAS.AddInt(0)
					p.Runs++
					continue
				}
				params := core.Params{}
				params.Resources.TimeLimit = cfg.TimeLimit
				res, err := core.Solve(ig, plat, params)
				if err != nil {
					return fmt.Errorf("exp: partition sweep posSeed=%d run=%d: %w", posSeed, run, err)
				}
				if res.Stats.TimedOut {
					p.Censored++
					continue
				}
				p.Vertices.AddInt(res.Stats.Generated)
				p.Lateness.AddInt(int64(res.Cost))
				p.MaxAS.AddInt(int64(res.Stats.MaxActiveSet))
				p.Runs++
			}
		}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "partition-sweep",
		Title:  "Global vs partitioned scheduling on a fast/slow platform (speeds 1,½,1,½,…)",
		XLabel: "processors",
		Series: series,

		VertexLabel: "search vertices (global: generated; partitioned: visited+pruned)",
	}, nil
}
