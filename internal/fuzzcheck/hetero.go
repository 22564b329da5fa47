package fuzzcheck

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/edf"
	"repro/internal/gen"
	"repro/internal/hetero"
	"repro/internal/listsched"
	"repro/internal/platform"
)

// RunHetero executes the heterogeneous-platform cross-validation campaign:
// random small workloads on random related-machines platforms (speed menu
// {0.5, 1, 2, 3}, random non-empty affinity masks), checking per instance
//
//	global    core.Solve on the heterogeneous platform == brute-force
//	          (order × placement) enumeration, also under
//	          Params.DuplicateFree with the same proof flags;
//	part      hetero.SolvePartitioned == exhaustive assignment
//	          enumeration (hetero.BruteForcePartitioned);
//	relate    partitioned optimum >= global optimum (every partitioned
//	          schedule is a global schedule);
//	bounds    analysis.Lower <= global optimum on the hetero platform;
//	approx    EDF and list schedules stay valid and >= the global optimum;
//	legacy    an EXPLICIT unit-speed/universal-affinity spec runs the
//	          optimized kernel with Stats bit-identical to the reference
//	          kernel on the nil-table legacy platform — the exact-bounds
//	          contract across the heterogeneity seam.
//
// It reuses Config; Procs is capped at 4 to keep the assignment oracle
// tractable.
func RunHetero(cfg Config) (Result, error) {
	if cfg.Instances < 1 || cfg.MaxTasks < 5 || cfg.Procs < 1 {
		return Result{}, fmt.Errorf("fuzzcheck: bad hetero config %+v", cfg)
	}
	var res Result
	for i := 0; i < cfg.Instances; i++ {
		seed := cfg.Seed + int64(i)
		ok, err := checkHeteroInstance(cfg, seed)
		if err != nil {
			return res, fmt.Errorf("fuzzcheck: hetero seed %d: %w", seed, err)
		}
		if ok {
			res.Checked++
		} else {
			res.Skipped++
		}
		if cfg.Logf != nil {
			cfg.Logf("fuzzcheck: hetero seed %d done (%d checked, %d skipped)", seed, res.Checked, res.Skipped)
		}
	}
	return res, nil
}

// heteroPlatform draws the instance's platform: a speed factor per
// processor from a fixed menu and a non-empty affinity mask per task, each
// table independently present or absent, so homogeneous, speeds-only,
// affinity-only and fully heterogeneous platforms all appear in one
// campaign.
func heteroPlatform(rng *rand.Rand, n, m int) platform.Platform {
	p := platform.New(m)
	menu := []float64{0.5, 1, 2, 3}
	if rng.Intn(4) > 0 {
		p.Speed = make([]float64, m)
		for q := range p.Speed {
			p.Speed[q] = menu[rng.Intn(len(menu))]
		}
	}
	if rng.Intn(4) > 0 {
		p.Affinity = make([]uint64, n)
		for id := range p.Affinity {
			p.Affinity[id] = 1 + uint64(rng.Intn(1<<m-1))
		}
	}
	return p
}

func checkHeteroInstance(cfg Config, seed int64) (bool, error) {
	gp := gen.Defaults()
	maxTasks := cfg.MaxTasks
	if maxTasks > 8 {
		maxTasks = 8 // both oracles are exponential; stay where they are exact
	}
	gp.NMin, gp.NMax = 5, maxTasks
	gp.DepthMin, gp.DepthMax = 2, 4
	gp.CCR = float64(seed%4) / 2.0
	g := gen.New(gp, seed).Graph()
	laxity := 0.8 + float64(seed%5)*0.25
	pol := deadline.EqualSlack
	if seed%2 == 1 {
		pol = deadline.Proportional
	}
	if err := deadline.Assign(g, laxity, pol); err != nil {
		return false, err
	}

	procs := cfg.Procs
	if procs > 4 {
		procs = 4
	}
	m := 1 + int(seed)%procs
	rng := rand.New(rand.NewSource(seed * 31))
	plat := heteroPlatform(rng, g.NumTasks(), m)
	tl := core.ResourceBounds{TimeLimit: cfg.Budget}

	// Global mode vs the (order × placement) oracle.
	ref, err := core.Solve(g, plat, core.Params{Resources: tl})
	if err != nil {
		return false, err
	}
	if ref.Stats.TimedOut {
		return false, nil
	}
	if ref.Schedule == nil || ref.Schedule.Check() != nil {
		return false, fmt.Errorf("global hetero solve produced no valid schedule")
	}
	want, err := bruteforce.Solve(g, plat)
	if err != nil {
		return false, err
	}
	if ref.Cost != want.Cost {
		return false, fmt.Errorf("global hetero cost %d != oracle %d on %v", ref.Cost, want.Cost, plat)
	}
	// Duplicate-free generation: symmetry within each processor class and
	// start-time order keep the oracle's optimum and the proof.
	for _, params := range []core.Params{
		{DuplicateFree: true, Resources: tl},
		{Selection: core.SelectLLB, DuplicateFree: true, Resources: tl},
	} {
		r, err := core.Solve(g, plat, params)
		if err != nil {
			return false, err
		}
		if r.Stats.TimedOut {
			return false, nil
		}
		if r.Cost != want.Cost || r.Optimal != ref.Optimal || r.Guarantee != ref.Guarantee {
			return false, fmt.Errorf("duplicate-free %v hetero cost %d optimal=%v != oracle %d (reference optimal=%v) on %v",
				params.Selection, r.Cost, r.Optimal, want.Cost, ref.Optimal, plat)
		}
	}

	// Partitioned mode vs the exhaustive assignment oracle.
	part, err := hetero.SolvePartitioned(nil, g, plat, hetero.Options{TimeLimit: cfg.Budget})
	if err != nil {
		return false, err
	}
	if part.Stats.TimedOut {
		return false, nil
	}
	wantPart, err := hetero.BruteForcePartitioned(g, plat)
	if err != nil {
		return false, err
	}
	if part.Cost != wantPart.Cost {
		return false, fmt.Errorf("partitioned cost %d != assignment oracle %d on %v", part.Cost, wantPart.Cost, plat)
	}
	if part.Cost < ref.Cost {
		return false, fmt.Errorf("partitioned optimum %d beats global optimum %d", part.Cost, ref.Cost)
	}

	// Certified bounds stay below the hetero optimum.
	rep, err := analysis.Analyze(g, plat)
	if err != nil {
		return false, err
	}
	if rep.Lower > ref.Cost {
		return false, fmt.Errorf("analysis bound %d above hetero optimum %d", rep.Lower, ref.Cost)
	}

	// Heuristics respect affinity and never beat the optimum.
	edfRun, err := edf.Schedule(g, plat)
	if err != nil {
		return false, err
	}
	if err := edfRun.Schedule.Check(); err != nil {
		return false, fmt.Errorf("hetero EDF schedule invalid: %v", err)
	}
	if edfRun.Lmax < ref.Cost {
		return false, fmt.Errorf("EDF cost %d beats the hetero optimum %d", edfRun.Lmax, ref.Cost)
	}
	for _, lp := range listsched.Policies() {
		r, err := listsched.Schedule(g, plat, lp)
		if err != nil {
			return false, err
		}
		if err := r.Schedule.Check(); err != nil {
			return false, fmt.Errorf("hetero %v schedule invalid: %v", lp, err)
		}
		if r.Lmax < ref.Cost {
			return false, fmt.Errorf("%v cost %d beats the hetero optimum %d", lp, r.Lmax, ref.Cost)
		}
	}

	// Legacy continuity: an explicit unit/universal spec must follow the
	// reference kernel's event stream exactly — the same Stats counters —
	// across a slice of the kernel grid.
	unit := platform.New(m)
	unit.Speed = make([]float64, m)
	for q := range unit.Speed {
		unit.Speed[q] = 1
	}
	unit.Affinity = make([]uint64, g.NumTasks())
	for id := range unit.Affinity {
		unit.Affinity[id] = uint64(1)<<uint(m) - 1
	}
	for _, combo := range []core.Params{
		{},
		{Selection: core.SelectLLB},
		{Branching: core.BranchDF, Bound: core.BoundLB0},
		{Dominance: true},
	} {
		opt := combo
		opt.Resources = tl
		refp := opt
		refp.ReferenceKernel = true
		a, err := core.Solve(g, unit, opt)
		if err != nil {
			return false, err
		}
		b, err := core.Solve(g, platform.New(m), refp)
		if err != nil {
			return false, err
		}
		if a.Stats.TimedOut || b.Stats.TimedOut {
			return false, nil
		}
		if err := kernelResultsEqual(a, b); err != nil {
			return false, fmt.Errorf("unit spec diverged from legacy reference kernel (%+v): %w", combo, err)
		}
	}
	return true, nil
}
