package core

import (
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// solveSlices emulates the distributed merge sequentially: solve every
// slice under the shared incumbent (UpperBoundFixed) and fold improvements
// back in, exactly as the coordinator does across workers.
func solveSlices(t *testing.T, g *taskgraph.Graph, plat platform.Platform, p Params, f Frontier) taskgraph.Time {
	t.Helper()
	best := f.BestCost
	for i, sl := range f.Slices {
		sp := p
		sp.Prefix = sl.Prefix
		sp.UpperBound = UpperBoundFixed
		sp.FixedUpperBound = best
		res, err := Solve(g, plat, sp)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if res.Reason != TermExhausted {
			t.Fatalf("slice %d: reason %v, want exhausted", i, res.Reason)
		}
		if res.Optimal || res.Guarantee {
			t.Fatalf("slice %d: prefix solve claimed a proof (optimal=%v guarantee=%v)", i, res.Optimal, res.Guarantee)
		}
		if res.Schedule != nil && res.Cost < best {
			best = res.Cost
		}
	}
	return best
}

// TestFrontierPartition is the distribution soundness test: a frontier
// expansion plus an independent solve of every slice (folded through the
// shared incumbent) must land on exactly the sequential solver's cost,
// for any combination of selection/branching/bound rules, with and without
// duplicate-free generation, and any frontier size. This is the invariant
// the fleet's correctness rests on.
func TestFrontierPartition(t *testing.T) {
	combos := []Params{
		{},
		{Selection: SelectLLB},
		{Bound: BoundLB0},
		{Branching: BranchDF, Bound: BoundLB0},
		{Selection: SelectLLB, Branching: BranchBF1},
		{DuplicateFree: true},
		{Selection: SelectLLB, DuplicateFree: true},
		{Branching: BranchDF, Bound: BoundLB0, DuplicateFree: true},
		{Dedup: true, DuplicateFree: true},
	}
	graphs := smallWorkloads(t, 2, 101)
	graphs = append(graphs, paperWorkloads(t, 2, 909)...)
	for gi, g := range graphs {
		for _, m := range []int{2, 3} {
			plat := platform.New(m)
			for _, p := range combos {
				seq := mustSolve(t, g, plat, p)
				for _, target := range []int{1, 4, 16} {
					f, err := EnumerateFrontier(g, plat, p, target)
					if err != nil {
						t.Fatalf("graph %d m=%d target %d: %v", gi, m, target, err)
					}
					if f.Exhausted {
						if len(f.Slices) != 0 {
							t.Fatalf("graph %d m=%d: exhausted frontier with %d slices", gi, m, len(f.Slices))
						}
						if f.BestCost != seq.Cost {
							t.Fatalf("graph %d m=%d target %d: exhausted cost %d, sequential %d", gi, m, target, f.BestCost, seq.Cost)
						}
						continue
					}
					if got := solveSlices(t, g, plat, p, f); got != seq.Cost {
						t.Errorf("graph %d m=%d target %d params %+v: merged cost %d, sequential %d", gi, m, target, p, got, seq.Cost)
					}
				}
			}
		}
	}
}

// TestFrontierDeterministic: same instance, same params, same target must
// produce byte-for-byte the same slices in the same order — the dispatch
// protocol identifies slices by position.
func TestFrontierDeterministic(t *testing.T) {
	g := paperWorkloads(t, 1, 4242)[0]
	plat := platform.New(3)
	a, err := EnumerateFrontier(g, plat, Params{Selection: SelectLLB}, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnumerateFrontier(g, plat, Params{Selection: SelectLLB}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Slices) != len(b.Slices) || a.BestCost != b.BestCost {
		t.Fatalf("frontier not deterministic: %d/%d slices, cost %d/%d",
			len(a.Slices), len(b.Slices), a.BestCost, b.BestCost)
	}
	for i := range a.Slices {
		if a.Slices[i].LB != b.Slices[i].LB || len(a.Slices[i].Prefix) != len(b.Slices[i].Prefix) {
			t.Fatalf("slice %d differs between runs", i)
		}
		for j := range a.Slices[i].Prefix {
			if a.Slices[i].Prefix[j] != b.Slices[i].Prefix[j] {
				t.Fatalf("slice %d placement %d differs between runs", i, j)
			}
		}
	}
}

// TestFrontierReferenceKernelIdentical pins EnumerateFrontier's output:
// with the optimized kernel it must return exactly the reference kernel's
// Frontier — slices, incumbent cost and sequence, seed, exhaustion flag
// and Stats — over the parameter combinations the expansion accepts, on
// homogeneous platforms and on one with speed factors and affinities.
func TestFrontierReferenceKernelIdentical(t *testing.T) {
	combos := []Params{
		{},
		{Selection: SelectLLB},
		{Selection: SelectFIFO, Branching: BranchBF1},
		{Bound: BoundLB0},
		{Bound: BoundNone, Branching: BranchDF},
		{Branching: BranchBF1},
		{Branching: BranchDF, Bound: BoundLB0},
		{BR: 0.25},
		{Selection: SelectLLB, BR: 0.1},
		{ChildOrder: ChildrenAsGenerated},
		{Dedup: true},
		{UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity},
		{DuplicateFree: true},
		{Selection: SelectLLB, Branching: BranchBF1, DuplicateFree: true},
		{Bound: BoundLB0, Dedup: true, DuplicateFree: true},
	}
	graphs := append(smallWorkloads(t, 3, 41), paperWorkloads(t, 3, 777)...)
	for gi, g := range graphs {
		hetero := platform.Platform{M: 3, CommDelay: 1, Speed: []float64{1, 2, 0.5}, Affinity: make([]uint64, g.NumTasks())}
		for i := range hetero.Affinity {
			hetero.Affinity[i] = []uint64{7, 3, 6, 5}[i%4]
		}
		for pi, plat := range []platform.Platform{platform.New(1), platform.New(2), platform.New(3), hetero} {
			for _, p := range combos {
				for _, target := range []int{1, 8, 64} {
					opt, err := EnumerateFrontier(g, plat, p, target)
					if err != nil {
						t.Fatalf("graph %d platform %d %v target %d: %v", gi, pi, p, target, err)
					}
					pr := p
					pr.ReferenceKernel = true
					ref, err := EnumerateFrontier(g, plat, pr, target)
					if err != nil {
						t.Fatalf("graph %d platform %d %v target %d (reference): %v", gi, pi, p, target, err)
					}
					if !reflect.DeepEqual(opt, ref) {
						t.Errorf("graph %d platform %d %v target %d: frontier diverges\noptimized: %+v\nreference: %+v",
							gi, pi, p, target, opt, ref)
					}
				}
			}
		}
	}
}

func TestFrontierRejectsUnsupported(t *testing.T) {
	g := smallWorkloads(t, 1, 7)[0]
	plat := platform.New(2)
	bad := []Params{
		{Dominance: true},
		{Observer: func(Event) {}},
		{Link: &IncumbentLink{}},
		{Prefix: []sched.Placement{{}}},
		{Resources: ResourceBounds{MaxActiveSet: 8}},
	}
	for i, p := range bad {
		if _, err := EnumerateFrontier(g, plat, p, 4); err == nil {
			t.Errorf("combo %d: expected rejection", i)
		}
	}
	if _, err := EnumerateFrontier(g, plat, Params{}, 0); err == nil {
		t.Error("target 0: expected rejection")
	}
}

func TestPrefixValidation(t *testing.T) {
	g := smallWorkloads(t, 1, 31)[0]
	plat := platform.New(2)
	seq := mustSolve(t, g, plat, Params{})

	// A full prefix leaves nothing to search.
	full := seq.Schedule.Placements()
	if _, err := Solve(g, plat, Params{Prefix: full}); err == nil {
		t.Error("full prefix: expected rejection")
	}

	// A prefix placing a non-ready task must be rejected, not searched.
	var last sched.Placement
	for _, pl := range full {
		if len(g.Preds(pl.Task)) > 0 {
			last = pl
			break
		}
	}
	if _, err := Solve(g, plat, Params{Prefix: []sched.Placement{last}}); err == nil {
		t.Error("non-ready prefix: expected rejection")
	}
}

// TestIncumbentLinkPublish: every incumbent adoption must be published,
// strictly improving, and the last publication must be the final cost.
func TestIncumbentLinkPublish(t *testing.T) {
	g := paperWorkloads(t, 1, 55)[0]
	plat := platform.New(2)
	var costs []taskgraph.Time
	var lens []int
	link := &IncumbentLink{
		Best: func() taskgraph.Time { return taskgraph.Infinity },
		Publish: func(c taskgraph.Time, pls []sched.Placement) {
			costs = append(costs, c)
			lens = append(lens, len(pls))
		},
	}
	res, err := Solve(g, plat, Params{Selection: SelectLLB, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal || res.Guarantee {
		t.Error("linked solve must not claim a local proof")
	}
	if len(costs) != res.Stats.IncumbentUpdates {
		t.Fatalf("published %d improvements, stats say %d", len(costs), res.Stats.IncumbentUpdates)
	}
	for i := range costs {
		if lens[i] != g.NumTasks() {
			t.Fatalf("publication %d carried %d placements, want %d", i, lens[i], g.NumTasks())
		}
		if i > 0 && costs[i] >= costs[i-1] {
			t.Fatalf("publication %d not strictly improving: %d after %d", i, costs[i], costs[i-1])
		}
	}
	if len(costs) > 0 && costs[len(costs)-1] != res.Cost {
		t.Fatalf("last publication %d != final cost %d", costs[len(costs)-1], res.Cost)
	}
}

// TestIncumbentLinkBound: an external bound just above the optimum still
// lets the solver adopt the optimal goal, and a bound at the optimum
// prunes it (the broadcast-pruning soundness cases).
func TestIncumbentLinkBound(t *testing.T) {
	g := smallWorkloads(t, 1, 63)[0]
	plat := platform.New(2)
	seq := mustSolve(t, g, plat, Params{})

	loose := seq.Cost + 1
	res, err := Solve(g, plat, Params{Link: &IncumbentLink{
		Best: func() taskgraph.Time { return loose },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != seq.Cost {
		t.Fatalf("loose external bound: cost %d, want %d", res.Cost, seq.Cost)
	}

	tight := seq.Cost
	res, err = Solve(g, plat, Params{
		UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity,
		Link: &IncumbentLink{Best: func() taskgraph.Time { return tight }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil && res.Cost < seq.Cost {
		t.Fatalf("tight external bound found impossible cost %d < %d", res.Cost, seq.Cost)
	}
}

func TestPrefixLinkRejectedElsewhere(t *testing.T) {
	g := smallWorkloads(t, 1, 7)[0]
	plat := platform.New(2)
	pfx := Params{Prefix: []sched.Placement{{}}}
	lnk := Params{Link: &IncumbentLink{}}
	if _, err := SolveParallel(g, plat, ParallelParams{Params: pfx, Workers: 2}); err == nil {
		t.Error("SolveParallel accepted Prefix")
	}
	if _, err := SolveParallel(g, plat, ParallelParams{Params: lnk, Workers: 2}); err == nil {
		t.Error("SolveParallel accepted Link")
	}
	if _, err := SolveIDA(g, plat, pfx); err == nil {
		t.Error("SolveIDA accepted Prefix")
	}
	if _, err := SolveIDA(g, plat, lnk); err == nil {
		t.Error("SolveIDA accepted Link")
	}
}
