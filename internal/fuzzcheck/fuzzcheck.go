// Package fuzzcheck is the repository's differential testing harness: it
// streams random workloads through every solver configuration and
// cross-checks the results against one another and against the structural
// invariants, reporting the first discrepancy with a reproducer seed.
//
// The checked equivalences, per instance:
//
//	oracle    brute-force optimum (small instances only)
//	exact     Solve{LIFO, LLB, FIFO} × {LB0, LB1} all equal, == oracle,
//	          also under Params.DuplicateFree with the same proof flags
//	ida       SolveIDA == exact, with and without DuplicateFree
//	parallel  SolveParallel == exact, with and without DuplicateFree
//	frontier  EnumerateFrontier at targets 1, 4 and 16 plus every slice
//	          solved under the shared incumbent == exact, with and
//	          without DuplicateFree
//	approx    DF, BF1, BR>0, list schedulers, EDF, improve: >= exact,
//	          valid schedules, BR within its guarantee
//	bounds    analysis.Lower <= exact
//
// It backs `go test` (small budgets) and cmd/bbfuzz (open-ended runs).
package fuzzcheck

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/edf"
	"repro/internal/gen"
	"repro/internal/improve"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Config bounds one fuzz campaign.
type Config struct {
	// Instances is the number of random workloads to check.
	Instances int

	// Seed selects the campaign; instance i uses Seed+i.
	Seed int64

	// MaxTasks caps the instance size (5..MaxTasks tasks; the oracle is
	// only consulted up to 8 tasks).
	MaxTasks int

	// Procs is the largest processor count exercised (1..Procs).
	Procs int

	// Budget bounds each exact solve; instances that time out are skipped
	// (counted in Result.Skipped).
	Budget time.Duration

	// Logf, when non-nil, receives one line per instance.
	Logf func(format string, args ...interface{})
}

// DefaultConfig returns a laptop-scale campaign.
func DefaultConfig() Config {
	return Config{Instances: 50, Seed: 1, MaxTasks: 8, Procs: 3, Budget: 5 * time.Second}
}

// Result summarizes a campaign.
type Result struct {
	Checked int
	Skipped int
}

// Run executes the campaign, stopping at the first discrepancy. The error
// message always embeds the reproducer seed.
func Run(cfg Config) (Result, error) {
	if cfg.Instances < 1 || cfg.MaxTasks < 5 || cfg.Procs < 1 {
		return Result{}, fmt.Errorf("fuzzcheck: bad config %+v", cfg)
	}
	var res Result
	for i := 0; i < cfg.Instances; i++ {
		seed := cfg.Seed + int64(i)
		ok, err := checkInstance(cfg, seed)
		if err != nil {
			return res, fmt.Errorf("fuzzcheck: seed %d: %w", seed, err)
		}
		if ok {
			res.Checked++
		} else {
			res.Skipped++
		}
		if cfg.Logf != nil {
			cfg.Logf("fuzzcheck: seed %d done (%d checked, %d skipped)", seed, res.Checked, res.Skipped)
		}
	}
	return res, nil
}

func checkInstance(cfg Config, seed int64) (bool, error) {
	p := gen.Defaults()
	p.NMin, p.NMax = 5, cfg.MaxTasks
	p.DepthMin, p.DepthMax = 2, 5
	p.CCR = float64(seed%4) / 2.0 // 0, 0.5, 1.0, 1.5 across seeds
	gg := gen.New(p, seed)
	g := gg.Graph()
	laxity := 0.8 + float64(seed%5)*0.25 // 0.8 .. 1.8
	pol := deadline.EqualSlack
	if seed%2 == 1 {
		pol = deadline.Proportional
	}
	if err := deadline.Assign(g, laxity, pol); err != nil {
		return false, err
	}

	m := 1 + int(seed)%cfg.Procs
	plat := platform.New(m)
	tl := core.ResourceBounds{TimeLimit: cfg.Budget}

	ref, err := core.Solve(g, plat, core.Params{Resources: tl})
	if err != nil {
		return false, err
	}
	if ref.Stats.TimedOut {
		return false, nil // too hard for the budget: skip, don't fail
	}
	if ref.Schedule == nil || ref.Schedule.Check() != nil {
		return false, fmt.Errorf("reference solve produced no valid schedule")
	}

	// Oracle (small instances).
	if g.NumTasks() <= 8 && m <= 2 {
		want, err := bruteforce.Solve(g, plat)
		if err != nil {
			return false, err
		}
		if ref.Cost != want.Cost {
			return false, fmt.Errorf("LIFO %d != oracle %d", ref.Cost, want.Cost)
		}
	}

	// Exact family.
	for _, params := range []core.Params{
		{Selection: core.SelectLLB, Resources: tl},
		{Selection: core.SelectLLB, LLBTie: core.TieDeepest, Resources: tl},
		{Selection: core.SelectFIFO, Resources: tl},
		{Bound: core.BoundLB0, Resources: tl},
		{ChildOrder: core.ChildrenAsGenerated, Resources: tl},
		{Dominance: true, Resources: tl},
		// Duplicate-free generation searches a reduced tree for the same
		// answer and proof.
		{DuplicateFree: true, Resources: tl},
		{Selection: core.SelectLLB, DuplicateFree: true, Resources: tl},
		{Selection: core.SelectFIFO, DuplicateFree: true, Resources: tl},
		{Bound: core.BoundLB0, DuplicateFree: true, Resources: tl},
		{Dedup: true, DuplicateFree: true, Resources: tl},
	} {
		r, err := core.Solve(g, plat, params)
		if err != nil {
			return false, err
		}
		if r.Stats.TimedOut {
			return false, nil
		}
		if r.Cost != ref.Cost || r.Optimal != ref.Optimal || r.Guarantee != ref.Guarantee {
			return false, fmt.Errorf("%v (DuplicateFree=%v) cost %d optimal=%v guarantee=%v != reference %d optimal=%v guarantee=%v",
				params, params.DuplicateFree, r.Cost, r.Optimal, r.Guarantee, ref.Cost, ref.Optimal, ref.Guarantee)
		}
	}
	for _, dupFree := range []bool{false, true} {
		ida, err := core.SolveIDA(g, plat, core.Params{DuplicateFree: dupFree, Resources: tl})
		if err != nil {
			return false, err
		}
		if !ida.Stats.TimedOut && ida.Cost != ref.Cost {
			return false, fmt.Errorf("IDA (DuplicateFree=%v) cost %d != reference %d", dupFree, ida.Cost, ref.Cost)
		}
	}
	for _, leg := range []core.ParallelParams{
		{Params: core.Params{Resources: tl}, Workers: 4},
		{Params: core.Params{DuplicateFree: true, Resources: tl}, Workers: 2},
	} {
		par, err := core.SolveParallel(g, plat, leg)
		if err != nil {
			return false, err
		}
		if !par.Stats.TimedOut && par.Cost != ref.Cost {
			return false, fmt.Errorf("parallel (DuplicateFree=%v) cost %d != reference %d", leg.DuplicateFree, par.Cost, ref.Cost)
		}
	}

	for _, dupFree := range []bool{false, true} {
		for _, target := range []int{1, 4, 16} {
			p := core.Params{DuplicateFree: dupFree, Resources: tl}
			cost, exhausted, err := solveFrontier(g, plat, p, target)
			if err != nil {
				return false, fmt.Errorf("frontier target %d (DuplicateFree=%v): %w", target, dupFree, err)
			}
			if !exhausted {
				return false, nil
			}
			if cost != ref.Cost || !ref.Optimal || !ref.Guarantee {
				return false, fmt.Errorf("frontier target %d (DuplicateFree=%v) cost %d optimal=true != reference %d optimal=%v guarantee=%v",
					target, dupFree, cost, ref.Cost, ref.Optimal, ref.Guarantee)
			}
		}
	}

	// Bounds.
	rep, err := analysis.Analyze(g, plat)
	if err != nil {
		return false, err
	}
	if rep.Lower > ref.Cost {
		return false, fmt.Errorf("analysis bound %d above optimum %d", rep.Lower, ref.Cost)
	}

	// Approximate family: never better than exact, always valid.
	check := func(name string, cost taskgraph.Time, s interface{ Check() error }) error {
		if cost < ref.Cost {
			return fmt.Errorf("%s cost %d beats the optimum %d", name, cost, ref.Cost)
		}
		if err := s.Check(); err != nil {
			return fmt.Errorf("%s produced an invalid schedule: %v", name, err)
		}
		return nil
	}
	for _, br := range []core.BranchingRule{core.BranchDF, core.BranchBF1} {
		for _, dupFree := range []bool{false, true} {
			r, err := core.Solve(g, plat, core.Params{Branching: br, DuplicateFree: dupFree, Resources: tl})
			if err != nil {
				return false, err
			}
			if err := check(fmt.Sprintf("%v (DuplicateFree=%v)", br, dupFree), r.Cost, r.Schedule); err != nil {
				return false, err
			}
		}
	}
	brRun, err := core.Solve(g, plat, core.Params{BR: 0.25, Resources: tl})
	if err != nil {
		return false, err
	}
	absCost := brRun.Cost
	if absCost < 0 {
		absCost = -absCost
	}
	if float64(brRun.Cost-ref.Cost) > 0.25*float64(absCost) {
		return false, fmt.Errorf("BR guarantee violated: %d vs %d", brRun.Cost, ref.Cost)
	}
	for _, pol := range listsched.Policies() {
		r, err := listsched.Schedule(g, plat, pol)
		if err != nil {
			return false, err
		}
		if err := check(pol.String(), r.Lmax, r.Schedule); err != nil {
			return false, err
		}
	}
	edfRun, err := edf.Schedule(g, plat)
	if err != nil {
		return false, err
	}
	imp, err := improve.Improve(edfRun.Schedule, improve.Options{Seed: seed, Kicks: 2})
	if err != nil {
		return false, err
	}
	if err := check("improve", imp.Cost, imp.Schedule); err != nil {
		return false, err
	}
	if imp.Cost > edfRun.Lmax {
		return false, fmt.Errorf("improve regressed EDF: %d > %d", imp.Cost, edfRun.Lmax)
	}
	return true, nil
}

// solveFrontier runs an exact search the way the fleet splits it: the
// frontier expansion at the target, then every slice solved below its
// prefix under the incumbent the expansion and the earlier slices left.
// It returns the merged cost and whether every slice was exhausted, which
// is when the coordinator claims the optimum.
func solveFrontier(g *taskgraph.Graph, plat platform.Platform, p core.Params, target int) (taskgraph.Time, bool, error) {
	f, err := core.EnumerateFrontier(g, plat, p, target)
	if err != nil {
		return 0, false, err
	}
	best := f.BestCost
	for i, sl := range f.Slices {
		sp := p
		sp.Prefix, sp.UpperBound, sp.FixedUpperBound = sl.Prefix, core.UpperBoundFixed, best
		r, err := core.Solve(g, plat, sp)
		if err != nil {
			return 0, false, fmt.Errorf("slice %d: %w", i, err)
		}
		if r.Reason != core.TermExhausted {
			return 0, false, nil
		}
		if r.Schedule != nil && r.Cost < best {
			best = r.Cost
		}
	}
	return best, true, nil
}
