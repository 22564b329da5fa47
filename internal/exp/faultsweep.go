package exp

import (
	"context"
	"fmt"

	"repro/internal/deadline"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/rescue"
	"repro/internal/taskgraph"
)

// FaultSweep is the robustness experiment: how gracefully does a static
// schedule degrade when a processor fail-stops mid-run, and how much does
// budgeted B&B re-scheduling buy over plain list-scheduling recovery?
//
// Per instance, a static schedule is built with the list-scheduling
// portfolio, one processor (drawn by the seeded fault model) is killed at
// x·makespan for each sweep fraction x, and the residual problem is
// re-solved two ways on the surviving processors:
//
//	"B&B recover"  — branch-and-bound under a recovery budget of
//	                 cfg.TimeLimit (anytime: a censored search still
//	                 yields its incumbent);
//	"list recover" — the pure list-scheduling fallback (budget 0).
//
// Both variants see the same instance and the same fault (paired). The
// figure's columns are re-purposed: Vertices holds the recovery search
// effort (0 for the list fallback), Lateness the post-fault Lmax over all
// tasks, MaxAS the deadline-miss count, and Censored how often the B&B
// path degraded to the fallback. Early fault times hurt most: more work is
// lost, less of the platform's schedule survives.
//
// The platform is the LAST entry of cfg.Procs (at least 2 processors —
// one must survive). The sweep is non-adaptive: cfg.Runs instances per
// fraction.
func FaultSweep(cfg Config) (Figure, error) {
	// Validate before reading the platform off the processor sweep.
	if err := cfg.Validate(); err != nil {
		return Figure{}, err
	}
	m := cfg.Procs[len(cfg.Procs)-1]
	if m < 2 {
		return Figure{}, fmt.Errorf("exp: fault sweep needs at least 2 processors, got %d", m)
	}
	fracs := []float64{0.15, 0.35, 0.55, 0.75, 0.95}

	type recoveryVariant struct {
		name   string
		budget bool // cfg.TimeLimit vs zero
	}
	variants := []recoveryVariant{
		{name: "B&B recover", budget: true},
		{name: "list recover", budget: false},
	}
	// Journal keys reuse the sweep fingerprint; the variant names (with the
	// budget spelled out) keep fault-sweep entries disjoint from the
	// solver sweeps.
	names := make([]string, len(variants))
	keyVariants := make([]Variant, len(variants))
	for i, v := range variants {
		names[i] = v.name
		keyVariants[i] = Variant{Name: fmt.Sprintf("fault:%s budget=%v(%s)", v.name, v.budget, cfg.TimeLimit)}
	}
	pts := make([]sweepPoint, len(fracs))
	for j, frac := range fracs {
		pts[j] = sweepPoint{x: frac, workload: cfg.Workload, laxity: cfg.Workload.Laxity, procs: m}
	}

	plat := platform.New(m)
	series, err := sweep(cfg, names, keyVariants, pts, func(pt sweepPoint, posSeed int64, gg *gen.Generator, row []Point) error {
		model := faults.NewModel(posSeed*31 + 1)
		for run := 0; run < cfg.Runs; run++ {
			g := gg.Graph()
			if err := deadline.Assign(g, pt.laxity, cfg.Slicing); err != nil {
				return err
			}
			static, err := listsched.Best(g, plat)
			if err != nil {
				return err
			}
			fault := model.ProcFailure(plat, static.Schedule.Makespan())
			// The model draws the victim; the sweep dictates the instant.
			fault.At = taskgraph.Time(pt.x * float64(static.Schedule.Makespan()))
			sc := &faults.Scenario{Faults: []faults.Fault{fault}}

			for i, v := range variants {
				p := &row[i]
				opt := rescue.Options{}
				if v.budget {
					opt.Budget = cfg.TimeLimit
				}
				out, err := rescue.Recover(context.Background(), static.Schedule, sc, nil, opt)
				if err != nil {
					return fmt.Errorf("exp: fault sweep posSeed=%d run=%d: %w", posSeed, run, err)
				}
				if out.BB != nil {
					p.Vertices.AddInt(out.BB.Stats.Generated)
				} else {
					p.Vertices.AddInt(0)
				}
				p.Lateness.AddInt(int64(out.PostLmax))
				p.MaxAS.AddInt(int64(out.Misses))
				if v.budget && out.Degraded {
					p.Censored++
				}
				p.Runs++
			}
		}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fault-sweep",
		Title:  fmt.Sprintf("Post-fault recovery: B&B vs list re-scheduling (m=%d, one fail-stop)", m),
		XLabel: "fault time (×makespan)",
		Series: series,

		VertexLabel:   "recovery search vertices",
		LatenessLabel: "post-fault max lateness",
		ASLabel:       "deadline misses",
		RunsLabel:     "runs (B&B degraded)",
	}, nil
}
