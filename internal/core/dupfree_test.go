package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// sameOutcome reports whether two runs agree on Cost, Optimal and
// Guarantee.
func sameOutcome(a, b Result) bool {
	return a.Cost == b.Cost && a.Optimal == b.Optimal && a.Guarantee == b.Guarantee
}

// randomPlatform draws speed factors from {0.5, 1, 2} and a non-empty
// affinity mask per task, so that processors of one class, of several
// classes and with restricted tasks all appear.
func randomPlatform(rng *rand.Rand, n, m int) platform.Platform {
	p := platform.New(m)
	menu := []float64{0.5, 1, 2}
	if rng.Intn(3) > 0 {
		p.Speed = make([]float64, m)
		for q := range p.Speed {
			p.Speed[q] = menu[rng.Intn(len(menu))]
		}
	}
	if rng.Intn(3) > 0 {
		p.Affinity = make([]uint64, n)
		for id := range p.Affinity {
			p.Affinity[id] = 1 + uint64(rng.Intn(1<<m-1))
		}
	}
	return p
}

// TestDuplicateFreeMatchesBruteForce: the reduced tree keeps the optimum
// and its proof for every exact combination, on homogeneous and on
// speed/affinity platforms, against the oracle and the knob-off run.
func TestDuplicateFreeMatchesBruteForce(t *testing.T) {
	combos := []Params{
		{},
		{Selection: SelectLLB},
		{Selection: SelectFIFO},
		{Bound: BoundLB0},
		{Dedup: true},
		{Selection: SelectLLB, LLBTie: TieDeepest},
		{ChildOrder: ChildrenAsGenerated},
	}
	check := func(name string, g *taskgraph.Graph, plat platform.Platform, ps []Params) {
		t.Helper()
		want, err := bruteforce.Solve(g, plat)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		for _, p := range ps {
			off := mustSolve(t, g, plat, p)
			on := p
			on.DuplicateFree = true
			res := mustSolve(t, g, plat, on)
			if res.Cost != want.Cost || !res.Optimal || !sameOutcome(res, off) {
				t.Errorf("%s %v: duplicate-free cost=%d optimal=%v guarantee=%v, knob off cost=%d optimal=%v, oracle %d",
					name, p, res.Cost, res.Optimal, res.Guarantee, off.Cost, off.Optimal, want.Cost)
				continue
			}
			if err := res.Schedule.Check(); err != nil || res.Schedule.Lmax() != res.Cost {
				t.Errorf("%s %v: invalid schedule (%v) or Lmax %d != cost %d", name, p, err, res.Schedule.Lmax(), res.Cost)
			}
		}
	}
	graphs := 40
	if heavyBuild {
		graphs = 1
	}
	for gi, g := range smallWorkloads(t, graphs, 2101) {
		for _, m := range []int{1, 2, 3} {
			check(fmt.Sprintf("graph %d m=%d", gi, m), g, platform.New(m), combos)
		}
	}
	rng := rand.New(rand.NewSource(2102))
	for gi, g := range smallWorkloads(t, graphs, 2103) {
		for _, m := range []int{2, 3, 4} {
			plat := randomPlatform(rng, g.NumTasks(), m)
			check(fmt.Sprintf("hetero graph %d %v", gi, plat), g, plat, combos[:2])
		}
	}
}

// TestDuplicateFreeApproximateRulesKeepSymmetryOnly: DF and BF1 take the
// symmetry rule alone, so their answers match the knob-off run exactly.
func TestDuplicateFreeApproximateRulesKeepSymmetryOnly(t *testing.T) {
	for gi, g := range paperWorkloads(t, 4, 2201) {
		for _, br := range []BranchingRule{BranchDF, BranchBF1} {
			plat := platform.New(3)
			off := mustSolve(t, g, plat, Params{Branching: br})
			on := mustSolve(t, g, plat, Params{Branching: br, DuplicateFree: true})
			if on.Cost != off.Cost {
				t.Errorf("graph %d %v: duplicate-free cost %d != knob-off %d", gi, br, on.Cost, off.Cost)
			}
			if on.Stats.Skipped == 0 || on.Stats.Generated >= off.Stats.Generated {
				t.Errorf("graph %d %v: symmetry skipped %d, generated %d vs %d knob off",
					gi, br, on.Stats.Skipped, on.Stats.Generated, off.Stats.Generated)
			}
		}
	}
}

// TestDuplicateFreeReferenceKernel: with the knob on, the reference and
// the optimized kernel still walk one trajectory — the same answer and
// every Stats counter, Skipped included — for Solve and SolveIDA, and
// emit the same events.
func TestDuplicateFreeReferenceKernel(t *testing.T) {
	combos := []Params{
		{},
		{Selection: SelectLLB},
		{Bound: BoundLB0},
		{Branching: BranchDF},
		{Branching: BranchBF1, Selection: SelectLLB},
		{BR: 0.2},
		{Dedup: true},
		{Resources: ResourceBounds{MaxActiveSet: 16}},
	}
	papers := 3
	if heavyBuild {
		papers = 1
	}
	graphs := append(paperWorkloads(t, papers, 2301), smallWorkloads(t, 3, 2302)...)
	for gi, g := range graphs {
		for _, m := range []int{2, 3} {
			plat := platform.New(m)
			for _, p := range combos {
				p.DuplicateFree = true
				opt := mustSolve(t, g, plat, p)
				pr := p
				pr.ReferenceKernel = true
				ref := mustSolve(t, g, plat, pr)
				if !sameOutcome(opt, ref) || opt.Reason != ref.Reason ||
					!kernelStatsEqual(opt.Stats, ref.Stats) || opt.Stats.Skipped != ref.Stats.Skipped {
					t.Errorf("graph %d m=%d %v: optimized (cost=%d %+v) != reference (cost=%d %+v)",
						gi, m, p, opt.Cost, opt.Stats, ref.Cost, ref.Stats)
				}
			}
			optIDA, err := SolveIDA(g, plat, Params{DuplicateFree: true})
			if err != nil {
				t.Fatal(err)
			}
			refIDA, err := SolveIDA(g, plat, Params{DuplicateFree: true, ReferenceKernel: true})
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutcome(optIDA, refIDA) || !kernelStatsEqual(optIDA.Stats, refIDA.Stats) || optIDA.Stats.Skipped != refIDA.Stats.Skipped {
				t.Errorf("graph %d m=%d IDA: optimized (cost=%d %+v) != reference (cost=%d %+v)",
					gi, m, optIDA.Cost, optIDA.Stats, refIDA.Cost, refIDA.Stats)
			}
		}
	}

	// Skipped children are never emitted: the stream is the reference
	// kernel's, and it has one generation event per generated child.
	for _, g := range smallWorkloads(t, 4, 2303) {
		record := func(ref bool) ([]Event, Stats) {
			var evs []Event
			p := Params{DuplicateFree: true, ReferenceKernel: ref, Observer: func(e Event) { evs = append(evs, e) }}
			return evs, mustSolve(t, g, platform.New(3), p).Stats
		}
		opt, st := record(false)
		ref, _ := record(true)
		if len(opt) != len(ref) {
			t.Fatalf("%d events optimized vs %d reference", len(opt), len(ref))
		}
		var children int64
		for i := range opt {
			if opt[i] != ref[i] {
				t.Fatalf("event %d diverges: optimized %+v reference %+v", i, opt[i], ref[i])
			}
			switch opt[i].Kind {
			case EventGenerate, EventPrune, EventGoal, EventDuplicate:
				children++
			}
		}
		if children != st.Generated {
			t.Errorf("%d child events for %d generated vertices", children, st.Generated)
		}
	}
}

// TestDuplicateFreeDriversAgree: Solve, SolveParallel and SolveIDA find
// the knob-off optimum with the knob on.
func TestDuplicateFreeDriversAgree(t *testing.T) {
	graphs := 6
	if heavyBuild {
		graphs = 2
	}
	var off, on int64
	for gi, g := range paperWorkloads(t, graphs, 2401) {
		plat := platform.New(3)
		base := mustSolve(t, g, plat, Params{})
		seq := mustSolve(t, g, plat, Params{DuplicateFree: true})
		par, err := SolveParallel(g, plat, ParallelParams{Params: Params{DuplicateFree: true}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ida, err := SolveIDA(g, plat, Params{DuplicateFree: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]Result{"Solve": seq, "SolveParallel": par, "SolveIDA": ida} {
			if !sameOutcome(r, base) {
				t.Errorf("graph %d %s: duplicate-free cost=%d optimal=%v, knob off cost=%d optimal=%v",
					gi, name, r.Cost, r.Optimal, base.Cost, base.Optimal)
			}
		}
		if par.Stats.Skipped == 0 {
			t.Errorf("graph %d: SolveParallel skipped nothing", gi)
		}
		off += base.Stats.Generated
		on += seq.Stats.Generated
	}
	// One instance may grow (the LIFO dive changes); the set must shrink.
	if on >= off {
		t.Errorf("duplicate-free generated %d vertices over the set, knob off %d", on, off)
	}
}

// TestDedupRedundantUnderDuplicateFree: with duplicate-free generation on,
// each partial schedule has one path in the tree up to processor
// relabeling, so the transposition table finds nothing to prune. Adding
// Dedup leaves the outcome and the search size identical and prunes
// nothing, for LIFO and LLB under every branching rule, on the §4.1
// graphs at m=2 and m=3, on wide graphs, and on a platform with speed
// factors and affinities whose two classes hold two processors each.
func TestDedupRedundantUnderDuplicateFree(t *testing.T) {
	papers, wides, wideN := 12, 4, 12
	if heavyBuild {
		papers, wides, wideN = 1, 1, 9
	}
	type instance struct {
		name string
		g    *taskgraph.Graph
		plat platform.Platform
	}
	var insts []instance
	for gi, g := range paperWorkloads(t, papers, 2701) {
		hetero := platform.Platform{M: 4, CommDelay: 1, Speed: []float64{1, 1, 2, 2}, Affinity: make([]uint64, g.NumTasks())}
		for i := range hetero.Affinity {
			hetero.Affinity[i] = []uint64{0b1111, 0b0011, 0b1100}[i%3]
		}
		insts = append(insts,
			instance{fmt.Sprintf("paper %d m=2", gi), g, platform.New(2)},
			instance{fmt.Sprintf("paper %d m=3", gi), g, platform.New(3)},
			instance{fmt.Sprintf("paper %d hetero", gi), g, hetero})
	}
	for gi, g := range wideWorkloads(t, wides, wideN, 2702) {
		insts = append(insts, instance{fmt.Sprintf("wide %d m=3", gi), g, platform.New(3)})
	}
	for _, in := range insts {
		for _, sel := range []SelectionRule{SelectLIFO, SelectLLB} {
			for _, br := range []BranchingRule{BranchBFn, BranchDF, BranchBF1} {
				p := Params{Selection: sel, Branching: br, DuplicateFree: true}
				free := mustSolve(t, in.g, in.plat, p)
				p.Dedup = true
				both := mustSolve(t, in.g, in.plat, p)
				if !sameOutcome(both, free) || both.Stats.Generated != free.Stats.Generated ||
					both.Stats.Expanded != free.Stats.Expanded || both.Stats.DedupPruned != 0 {
					t.Errorf("%s %v %v: with Dedup cost=%d optimal=%v guarantee=%v generated=%d expanded=%d pruned=%d, without cost=%d optimal=%v guarantee=%v generated=%d expanded=%d",
						in.name, sel, br, both.Cost, both.Optimal, both.Guarantee, both.Stats.Generated, both.Stats.Expanded, both.Stats.DedupPruned,
						free.Cost, free.Optimal, free.Guarantee, free.Stats.Generated, free.Stats.Expanded)
				}
			}
		}
	}
}

// TestDuplicateFreeRejections: the combination without a soundness
// argument fails loudly.
func TestDuplicateFreeRejections(t *testing.T) {
	g := smallWorkloads(t, 1, 2501)[0]
	plat := platform.New(2)
	p := Params{DuplicateFree: true, Dominance: true}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "dominance") {
		t.Errorf("Validate = %v, want an error naming the dominance rule", err)
	}
	if _, err := Solve(g, plat, p); err == nil {
		t.Error("Solve accepted DuplicateFree with the dominance rule")
	}
}

// TestDuplicateFreePrefix: a DuplicateFree solve accepts every slice of a
// frontier enumerated under the same params, and rejects, naming the
// placement, a prefix that puts a task on a twin processor or, under BFn,
// below its predecessor in (start, ID) order. Without the knob both
// prefixes are searched as before.
func TestDuplicateFreePrefix(t *testing.T) {
	plat := platform.New(3)
	var g *taskgraph.Graph
	var ready []taskgraph.TaskID
	for _, c := range smallWorkloads(t, 20, 2601) {
		if ready = sched.NewState(c, plat).ReadyTasks(nil); len(ready) >= 2 && c.NumTasks() > 2 {
			g = c
			break
		}
	}
	if g == nil {
		t.Fatal("no workload with two source tasks")
	}
	for _, p := range []Params{
		{DuplicateFree: true},
		{Selection: SelectLLB, DuplicateFree: true},
		{Branching: BranchDF, DuplicateFree: true},
	} {
		// No upper bound, so the expansion cannot prune the tree away.
		p.UpperBound, p.FixedUpperBound = UpperBoundFixed, taskgraph.Infinity
		f, err := EnumerateFrontier(g, plat, p, 16)
		if err != nil || len(f.Slices) == 0 {
			t.Fatalf("%v: %d slices, %v", p, len(f.Slices), err)
		}
		for i, sl := range f.Slices {
			sp := p
			sp.Prefix, sp.UpperBound, sp.FixedUpperBound = sl.Prefix, UpperBoundFixed, f.BestCost
			if _, err := Solve(g, plat, sp); err != nil {
				t.Fatalf("%v slice %d: %v", p, i, err)
			}
		}
	}

	// x precedes y in (start, ID) order on empty processors. Placing x on
	// p1 while p0 is empty uses a twin; placing y on p0 and then x on p1
	// breaks start-time order, which DF does not apply.
	st := sched.NewState(g, plat)
	slices.SortFunc(ready, func(a, b taskgraph.TaskID) int {
		return cmp.Or(cmp.Compare(st.EST(a, 0), st.EST(b, 0)), cmp.Compare(a, b))
	})
	x, y := ready[0], ready[1]
	twin := []sched.Placement{st.Place(x, 1)}
	st.Reset()
	order := []sched.Placement{st.Place(y, 0), st.Place(x, 1)}
	for _, c := range []struct {
		name   string
		p      Params
		prefix []sched.Placement
		want   string // "" = accepted
	}{
		{"twin", Params{DuplicateFree: true}, twin, fmt.Sprintf("placement 0 (task %d on p1", x)},
		{"twin DF", Params{Branching: BranchDF, DuplicateFree: true}, twin, fmt.Sprintf("placement 0 (task %d on p1", x)},
		{"order", Params{DuplicateFree: true}, order, fmt.Sprintf("placement 1 (task %d on p1", x)},
		{"order DF", Params{Branching: BranchDF, DuplicateFree: true}, order, ""},
		{"twin knob off", Params{}, twin, ""},
		{"order knob off", Params{}, order, ""},
	} {
		c.p.Prefix = c.prefix
		_, err := Solve(g, plat, c.p)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
