package fuzzcheck

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// KernelConfig bounds one kernel differential campaign: the optimized
// search kernel (incremental materialization, cone-factored bounds)
// against Params.ReferenceKernel on identical instances.
//
// This is a stronger check than the cross-strategy equivalences in Run:
// those only compare final costs, which survive a kernel that prunes
// differently but still finds the optimum. Here the two kernels must agree
// on every Stats counter — same vertices generated, expanded, pruned, same
// incumbent-update count — which they only can if every lower bound and
// every materialized state is bit-identical along the entire search.
type KernelConfig struct {
	// Instances is the number of random workloads checked per parameter
	// combination (the campaign checks Instances × len(combos) pairs).
	Instances int

	// Seed selects the campaign; instance i uses Seed+i.
	Seed int64

	// MaxTasks caps the instance size (5..MaxTasks tasks).
	MaxTasks int

	// Procs is the largest processor count exercised (1..Procs).
	Procs int

	// Budget bounds each solve; instances that time out are skipped.
	Budget time.Duration

	// Logf, when non-nil, receives one line per instance.
	Logf func(format string, args ...interface{})
}

// DefaultKernelConfig returns a campaign sized for `go test`.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{Instances: 20, Seed: 4000, MaxTasks: 10, Procs: 3, Budget: 5 * time.Second}
}

// kernelCombos spans the strategy space the optimized kernel must track
// exactly: every selection rule, both bounds (plus no bound), every
// branching rule, BR allowances, child ordering, the dominance rule and
// duplicate-free generation.
var kernelCombos = []struct {
	name string
	p    core.Params
}{
	{"lifo-lb1-bfn", core.Params{}},
	{"lifo-lb0-bfn", core.Params{Bound: core.BoundLB0}},
	{"lifo-lb1-df", core.Params{Branching: core.BranchDF}},
	{"lifo-lb0-df", core.Params{Branching: core.BranchDF, Bound: core.BoundLB0}},
	{"lifo-lb1-bf1", core.Params{Branching: core.BranchBF1}},
	{"lifo-none-df", core.Params{Bound: core.BoundNone, Branching: core.BranchDF}},
	{"fifo-lb1-bfn", core.Params{Selection: core.SelectFIFO}},
	{"fifo-lb0-bf1", core.Params{Selection: core.SelectFIFO, Bound: core.BoundLB0, Branching: core.BranchBF1}},
	{"llb-lb1-bfn", core.Params{Selection: core.SelectLLB}},
	{"llb-lb0-df", core.Params{Selection: core.SelectLLB, Bound: core.BoundLB0, Branching: core.BranchDF}},
	{"llb-deepest", core.Params{Selection: core.SelectLLB, LLBTie: core.TieDeepest}},
	{"lifo-br25", core.Params{BR: 0.25}},
	{"llb-br10", core.Params{Selection: core.SelectLLB, BR: 0.1}},
	{"lifo-asgen", core.Params{ChildOrder: core.ChildrenAsGenerated}},
	{"lifo-dominance", core.Params{Dominance: true}},
	{"lifo-maxas", core.Params{Resources: core.ResourceBounds{MaxActiveSet: 12}}},
	{"lifo-dupfree", core.Params{DuplicateFree: true}},
	{"llb-dupfree-df", core.Params{Selection: core.SelectLLB, Branching: core.BranchDF, DuplicateFree: true}},
}

// RunKernel executes the kernel differential campaign, stopping at the
// first divergence. The error message embeds the reproducer seed and the
// parameter combination.
func RunKernel(cfg KernelConfig) (Result, error) {
	if cfg.Instances < 1 || cfg.MaxTasks < 5 || cfg.Procs < 1 {
		return Result{}, fmt.Errorf("fuzzcheck: bad kernel config %+v", cfg)
	}
	var res Result
	for i := 0; i < cfg.Instances; i++ {
		seed := cfg.Seed + int64(i)
		checked, err := checkKernelInstance(cfg, seed)
		if err != nil {
			return res, fmt.Errorf("fuzzcheck: kernel seed %d: %w", seed, err)
		}
		res.Checked += checked
		// Each combo can contribute a trajectory pair and a dedup pair;
		// IDA contributes a trajectory pair.
		res.Skipped += 2*len(kernelCombos) + 1 - checked
		if cfg.Logf != nil {
			cfg.Logf("fuzzcheck: kernel seed %d done (%d checked, %d skipped)", seed, res.Checked, res.Skipped)
		}
	}
	return res, nil
}

// checkKernelInstance returns the number of (combo, instance) pairs fully
// verified for this seed; timed-out pairs are skipped, any mismatch errors.
func checkKernelInstance(cfg KernelConfig, seed int64) (int, error) {
	gp := gen.Defaults()
	gp.NMin, gp.NMax = 5, cfg.MaxTasks
	gp.DepthMin, gp.DepthMax = 2, 5
	gp.CCR = float64(seed%4) / 2.0
	g := gen.New(gp, seed).Graph()
	laxity := 0.8 + float64(seed%5)*0.25
	pol := deadline.EqualSlack
	if seed%2 == 1 {
		pol = deadline.Proportional
	}
	if err := deadline.Assign(g, laxity, pol); err != nil {
		return 0, err
	}
	m := 1 + int(seed)%cfg.Procs
	plat := platform.New(m)

	checked := 0
	for _, combo := range kernelCombos {
		opt := combo.p
		opt.Resources.TimeLimit = cfg.Budget
		ref := opt
		ref.ReferenceKernel = true

		// FIFO's active set is exponential in n; keep it to small graphs.
		if opt.Selection == core.SelectFIFO && g.NumTasks() > 9 {
			continue
		}

		a, err := core.Solve(g, plat, opt)
		if err != nil {
			return checked, fmt.Errorf("%s optimized: %w", combo.name, err)
		}
		b, err := core.Solve(g, plat, ref)
		if err != nil {
			return checked, fmt.Errorf("%s reference: %w", combo.name, err)
		}
		if a.Stats.TimedOut || b.Stats.TimedOut {
			continue
		}
		if err := kernelResultsEqual(a, b); err != nil {
			return checked, fmt.Errorf("%s: %w", combo.name, err)
		}
		checked++

		// Dedup leg: duplicate pruning reshapes the vertex counts but must
		// never touch the outcome — identical cost, flags, and termination
		// reason against the reference kernel. Resource-loss pairs are
		// skipped: WHICH vertices overflow MAXSZAS/MAXSZDB depends on
		// exploration order, so a dropped-vertex run is only comparable to
		// itself.
		if a.Stats.Dropped == 0 && b.Stats.Dropped == 0 {
			dd := opt
			dd.Dedup = true
			c, err := dedupTwice(g, plat, dd)
			if err != nil {
				return checked, fmt.Errorf("%s dedup: %w", combo.name, err)
			}
			if !c.Stats.TimedOut {
				if err := dedupOutcomeEqual(c, b); err != nil {
					return checked, fmt.Errorf("%s dedup: %w", combo.name, err)
				}
				checked++
			}
		}
	}

	// The iterative-deepening regime shares the bounder; check it too.
	opt := core.Params{Branching: core.BranchDF, Resources: core.ResourceBounds{TimeLimit: cfg.Budget}}
	ref := opt
	ref.ReferenceKernel = true
	a, err := core.SolveIDA(g, plat, opt)
	if err != nil {
		return checked, fmt.Errorf("ida optimized: %w", err)
	}
	b, err := core.SolveIDA(g, plat, ref)
	if err != nil {
		return checked, fmt.Errorf("ida reference: %w", err)
	}
	if !a.Stats.TimedOut && !b.Stats.TimedOut {
		if err := kernelResultsEqual(a, b); err != nil {
			return checked, fmt.Errorf("ida: %w", err)
		}
		checked++
	}
	return checked, nil
}

// dedupTwice runs a dedup solve twice back to back. The second run gets
// the table the first one released (transpose.Acquire recycles it), so
// unless a run timed out, the two must agree on the outcome and on every
// Stats counter: a recycled table has to be indistinguishable from a
// fresh one. It returns the first run.
func dedupTwice(g *taskgraph.Graph, plat platform.Platform, p core.Params) (core.Result, error) {
	a, err := core.Solve(g, plat, p)
	if err != nil {
		return a, err
	}
	b, err := core.Solve(g, plat, p)
	if err != nil {
		return a, fmt.Errorf("rerun: %w", err)
	}
	if a.Stats.TimedOut || b.Stats.TimedOut {
		return a, nil
	}
	if err := dedupOutcomeEqual(b, a); err != nil {
		return a, fmt.Errorf("rerun on a recycled table: %w", err)
	}
	x, y := a.Stats, b.Stats
	x.Elapsed, y.Elapsed = 0, 0
	if x != y {
		return a, fmt.Errorf("rerun on a recycled table: stats %+v != first run %+v", y, x)
	}
	return a, nil
}

// dedupOutcomeEqual is the dedup campaign's weaker contract: duplicate
// pruning legitimately changes Generated/Expanded (that is the whole
// point), but the outcome — cost, optimality flags, termination reason —
// must be bit-identical to the reference kernel. The signature's
// processor-permutation invariance itself is quick-checked in
// internal/sched (TestSignatureProcessorPermutationInvariant).
func dedupOutcomeEqual(a, b core.Result) error {
	if a.Cost != b.Cost {
		return fmt.Errorf("cost %d != reference %d", a.Cost, b.Cost)
	}
	if a.Optimal != b.Optimal || a.Guarantee != b.Guarantee || a.Reason != b.Reason {
		return fmt.Errorf("outcome (%v,%v,%v) != reference (%v,%v,%v)",
			a.Optimal, a.Guarantee, a.Reason, b.Optimal, b.Guarantee, b.Reason)
	}
	return nil
}

// kernelResultsEqual demands bit-identical search trajectories: outcome
// fields and every deterministic Stats counter (Elapsed is wall-clock and
// exempt).
func kernelResultsEqual(a, b core.Result) error {
	if a.Cost != b.Cost {
		return fmt.Errorf("cost %d != reference %d", a.Cost, b.Cost)
	}
	if a.Optimal != b.Optimal || a.Guarantee != b.Guarantee || a.Reason != b.Reason {
		return fmt.Errorf("outcome (%v,%v,%v) != reference (%v,%v,%v)",
			a.Optimal, a.Guarantee, a.Reason, b.Optimal, b.Guarantee, b.Reason)
	}
	x, y := a.Stats, b.Stats
	switch {
	case x.Generated != y.Generated:
		return fmt.Errorf("Generated %d != %d", x.Generated, y.Generated)
	case x.Expanded != y.Expanded:
		return fmt.Errorf("Expanded %d != %d", x.Expanded, y.Expanded)
	case x.Goals != y.Goals:
		return fmt.Errorf("Goals %d != %d", x.Goals, y.Goals)
	case x.PrunedChildren != y.PrunedChildren:
		return fmt.Errorf("PrunedChildren %d != %d", x.PrunedChildren, y.PrunedChildren)
	case x.PrunedActive != y.PrunedActive:
		return fmt.Errorf("PrunedActive %d != %d", x.PrunedActive, y.PrunedActive)
	case x.DominancePruned != y.DominancePruned:
		return fmt.Errorf("DominancePruned %d != %d", x.DominancePruned, y.DominancePruned)
	case x.Skipped != y.Skipped:
		return fmt.Errorf("Skipped %d != %d", x.Skipped, y.Skipped)
	case x.Dropped != y.Dropped:
		return fmt.Errorf("Dropped %d != %d", x.Dropped, y.Dropped)
	case x.MaxActiveSet != y.MaxActiveSet:
		return fmt.Errorf("MaxActiveSet %d != %d", x.MaxActiveSet, y.MaxActiveSet)
	case x.IncumbentUpdates != y.IncumbentUpdates:
		return fmt.Errorf("IncumbentUpdates %d != %d", x.IncumbentUpdates, y.IncumbentUpdates)
	case x.MeanPopAge != y.MeanPopAge:
		return fmt.Errorf("MeanPopAge %v != %v", x.MeanPopAge, y.MeanPopAge)
	case x.TimedOut != y.TimedOut:
		return fmt.Errorf("TimedOut %v != %v", x.TimedOut, y.TimedOut)
	}
	return nil
}
