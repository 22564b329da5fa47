package core

import (
	"strings"
	"testing"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// wideWorkloads returns deadline-assigned graphs biased toward width (a low
// depth for the task count), the regime where the plain search re-expands
// permutations of the same partial schedule and dedup pays off most.
func wideWorkloads(t testing.TB, count, n int, seed int64) []*taskgraph.Graph {
	t.Helper()
	p := gen.Defaults()
	p.NMin, p.NMax = n, n
	p.DepthMin, p.DepthMax = 3, 4
	g := gen.New(p, seed)
	out := make([]*taskgraph.Graph, count)
	for i := range out {
		tg := g.Graph()
		if err := deadline.Assign(tg, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		out[i] = tg
	}
	return out
}

// dedupSuiteScale picks workload sizes for the expensive dedup tests.
// The assertions are size-independent; the instrumented bbdebug+race gate
// (scripts/check.sh vet) pays ~100× per vertex, so it runs the same
// checks on smaller trees to stay inside the go-test timeout.
func dedupSuiteScale() (graphs, n int, ms []int) {
	if heavyBuild {
		return 2, 10, []int{3}
	}
	return 3, 11, []int{2, 3}
}

// TestDedupIdenticalCostAcrossRules is the core soundness statement: for a
// spread of rule combinations, turning Dedup on must leave the final cost,
// optimality flags and termination reason untouched while never generating
// more vertices than the plain search.
func TestDedupIdenticalCostAcrossRules(t *testing.T) {
	count, n, ms := dedupSuiteScale()
	graphs := wideWorkloads(t, count, n, 101)
	combos := []Params{
		{}, // paper default: LIFO/BFn/LB1/EDF
		{Selection: SelectLLB},
		{Selection: SelectLLB, LLBTie: TieDeepest},
		{Branching: BranchDF},
		{Branching: BranchBF1, Bound: BoundLB0},
		{Bound: BoundLB0, ChildOrder: ChildrenAsGenerated},
		{BR: 0.1},
		{UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity},
	}
	for gi, g := range graphs {
		for _, m := range ms {
			plat := platform.New(m)
			for ci, base := range combos {
				off := mustSolve(t, g, plat, base)
				on := base
				on.Dedup = true
				res := mustSolve(t, g, plat, on)
				if res.Cost != off.Cost {
					t.Fatalf("graph %d m=%d combo %d (%v): dedup cost %d != plain %d",
						gi, m, ci, base, res.Cost, off.Cost)
				}
				if res.Optimal != off.Optimal || res.Guarantee != off.Guarantee {
					t.Errorf("graph %d m=%d combo %d: flags (%v,%v) != (%v,%v)",
						gi, m, ci, res.Optimal, res.Guarantee, off.Optimal, off.Guarantee)
				}
				if res.Reason != off.Reason {
					t.Errorf("graph %d m=%d combo %d: reason %v != %v",
						gi, m, ci, res.Reason, off.Reason)
				}
				if res.Stats.Generated > off.Stats.Generated {
					t.Errorf("graph %d m=%d combo %d: dedup generated %d > plain %d",
						gi, m, ci, res.Stats.Generated, off.Stats.Generated)
				}
				if res.Schedule != nil {
					if err := res.Schedule.Check(); err != nil {
						t.Errorf("graph %d m=%d combo %d: invalid schedule: %v", gi, m, ci, err)
					}
				}
			}
		}
	}
}

// TestDedupPrunesOnWideInstance pins down that the machinery actually fires:
// a wide instance on m=3 must record duplicate prunes and a searched-vertex
// reduction, and the table gauges must be populated and within the fixed
// table size.
func TestDedupPrunesOnWideInstance(t *testing.T) {
	g := wideWorkloads(t, 1, 14, 7)[0]
	plat := platform.New(3)
	off := mustSolve(t, g, plat, Params{})
	on := mustSolve(t, g, plat, Params{Dedup: true})
	if on.Cost != off.Cost {
		t.Fatalf("dedup cost %d != plain %d", on.Cost, off.Cost)
	}
	if on.Stats.DedupPruned == 0 {
		t.Fatalf("wide instance recorded no duplicate prunes (expanded=%d)", on.Stats.Expanded)
	}
	if on.Stats.Expanded >= off.Stats.Expanded {
		t.Errorf("dedup expanded %d >= plain %d", on.Stats.Expanded, off.Stats.Expanded)
	}
	if on.Stats.TableHits == 0 || on.Stats.TableBytesInUse == 0 {
		t.Errorf("table gauges not populated: %+v", on.Stats)
	}
	if on.Stats.TableBytesInUse > transpose.DefaultBudget {
		t.Errorf("table over budget: %d > %d", on.Stats.TableBytesInUse, transpose.DefaultBudget)
	}
	if off.Stats.DedupPruned != 0 || off.Stats.TableHits != 0 || off.Stats.TableBytesInUse != 0 {
		t.Errorf("plain run leaked dedup stats: %+v", off.Stats)
	}
}

// TestDedupObserverSeesDuplicates checks the event stream: duplicate prunes
// are reported as EventDuplicate and their count matches Stats.DedupPruned.
func TestDedupObserverSeesDuplicates(t *testing.T) {
	g := wideWorkloads(t, 1, 12, 13)[0]
	plat := platform.New(3)
	var dups int64
	p := Params{Dedup: true, Observer: func(e Event) {
		if e.Kind == EventDuplicate {
			dups++
		}
	}}
	res := mustSolve(t, g, plat, p)
	if dups != res.Stats.DedupPruned {
		t.Fatalf("observer saw %d duplicates, stats say %d", dups, res.Stats.DedupPruned)
	}
	if dups == 0 {
		t.Fatal("no duplicate events on a wide instance")
	}
}

// TestDedupValidation covers the drivers that reject Dedup: the knob is
// Solve's alone, and the error points at DuplicateFree, which removes the
// same duplicates without a table.
func TestDedupValidation(t *testing.T) {
	g := wideWorkloads(t, 1, 10, 47)[0]
	plat := platform.New(2)
	p := Params{Dedup: true}
	for _, c := range []struct {
		name  string
		solve func() (Result, error)
	}{
		{"SolveParallel", func() (Result, error) { return SolveParallel(g, plat, ParallelParams{Params: p, Workers: 2}) }},
		{"SolveIDA", func() (Result, error) { return SolveIDA(g, plat, p) }},
	} {
		if _, err := c.solve(); err == nil || !strings.Contains(err.Error(), "DuplicateFree") {
			t.Errorf("%s with Dedup: got %v, want an error naming DuplicateFree", c.name, err)
		}
	}
}
