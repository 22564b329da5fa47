package core

import (
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/deadline"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

func TestParallelMatchesSequentialOptimum(t *testing.T) {
	graphs := smallWorkloads(t, 8, 51)
	for gi, g := range graphs {
		for _, m := range []int{1, 2, 3} {
			plat := platform.New(m)
			seq := mustSolve(t, g, plat, Params{})
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := SolveParallel(g, plat, ParallelParams{Workers: workers})
				if err != nil {
					t.Fatalf("graph %d m=%d w=%d: %v", gi, m, workers, err)
				}
				if res.Cost != seq.Cost {
					t.Errorf("graph %d m=%d w=%d: parallel cost %d != sequential %d",
						gi, m, workers, res.Cost, seq.Cost)
				}
				if !res.Optimal {
					t.Errorf("graph %d m=%d w=%d: not flagged optimal", gi, m, workers)
				}
				if res.Schedule == nil || res.Schedule.Check() != nil {
					t.Errorf("graph %d m=%d w=%d: missing/invalid schedule", gi, m, workers)
				}
			}
		}
	}
}

func TestParallelAgainstBruteForce(t *testing.T) {
	graphs := smallWorkloads(t, 5, 57)
	for gi, g := range graphs {
		plat := platform.New(2)
		want, err := bruteforce.Solve(g, plat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveParallel(g, plat, ParallelParams{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != want.Cost {
			t.Errorf("graph %d: parallel cost %d, oracle %d", gi, res.Cost, want.Cost)
		}
	}
}

func TestParallelRepeatedRunsStableCost(t *testing.T) {
	// Stats vary with interleaving; the cost must not.
	g := paperWorkloads(t, 1, 61)[0]
	plat := platform.New(3)
	first, err := SolveParallel(g, plat, ParallelParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := SolveParallel(g, plat, ParallelParams{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != first.Cost {
			t.Fatalf("run %d: cost %d != %d", i, res.Cost, first.Cost)
		}
	}
}

func TestParallelApproximateAndBR(t *testing.T) {
	g := smallWorkloads(t, 1, 63)[0]
	plat := platform.New(2)
	opt := mustSolve(t, g, plat, Params{})

	for _, p := range []Params{
		{Branching: BranchDF},
		{Branching: BranchBF1},
		{BR: 0.1},
	} {
		res, err := SolveParallel(g, plat, ParallelParams{Params: p, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost < opt.Cost {
			t.Errorf("%v: parallel cost %d beats optimum %d", p, res.Cost, opt.Cost)
		}
		if res.Schedule == nil || res.Schedule.Check() != nil {
			t.Errorf("%v: missing/invalid schedule", p)
		}
		if p.BR > 0 {
			absCost := res.Cost
			if absCost < 0 {
				absCost = -absCost
			}
			if float64(res.Cost-opt.Cost) > p.BR*float64(absCost) {
				t.Errorf("BR guarantee violated: %d vs %d", res.Cost, opt.Cost)
			}
		}
	}
}

func TestParallelRejectsUnsupportedParams(t *testing.T) {
	g := taskgraph.Diamond()
	plat := platform.New(2)
	bad := []ParallelParams{
		{Params: Params{Selection: SelectLLB}},
		{Params: Params{Selection: SelectFIFO}},
		{Params: Params{Dominance: true}},
		{Params: Params{Resources: ResourceBounds{MaxActiveSet: 10}}},
		{Params: Params{Resources: ResourceBounds{MaxChildren: 4}}},
		{Params: Params{BR: -1}},
	}
	for i, pp := range bad {
		if _, err := SolveParallel(g, plat, pp); err == nil {
			t.Errorf("unsupported params #%d accepted", i)
		}
	}
	if _, err := SolveParallel(taskgraph.New(0), plat, ParallelParams{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestParallelTimeLimit(t *testing.T) {
	g := taskgraph.Independent(12, 10)
	if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
		t.Fatal(err)
	}
	res, err := SolveParallel(g, platform.New(3), ParallelParams{
		Params:  Params{Resources: ResourceBounds{TimeLimit: 5 * time.Millisecond}},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("no timeout on a 12-independent-task search in 5ms")
	}
	if res.Optimal {
		t.Fatal("timed-out run flagged optimal")
	}
	if res.Schedule == nil {
		t.Fatal("no best-so-far schedule after timeout")
	}
}

func TestParallelTinyInstanceSeedPathOnly(t *testing.T) {
	// A 1-task graph is fully solved during frontier seeding; the worker
	// pool must not deadlock on an empty pool.
	g := taskgraph.New(1)
	g.AddTask(taskgraph.Task{Exec: 5, Deadline: 10})
	res, err := SolveParallel(g, platform.New(2), ParallelParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != -5 || !res.Optimal {
		t.Fatalf("cost %d optimal=%v, want -5/true", res.Cost, res.Optimal)
	}
}

func TestParallelFixedUpperBoundFailure(t *testing.T) {
	g := taskgraph.Diamond()
	plat := platform.New(2)
	opt := mustSolve(t, g, plat, Params{})
	res, err := SolveParallel(g, plat, ParallelParams{
		Params: Params{UpperBound: UpperBoundFixed, FixedUpperBound: opt.Cost - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil {
		t.Fatal("infeasible bound still produced a schedule")
	}
}

func TestParallelStatsAggregated(t *testing.T) {
	g := paperWorkloads(t, 1, 67)[0]
	res, err := SolveParallel(g, platform.New(2), ParallelParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Generated == 0 || res.Stats.Expanded == 0 {
		t.Fatalf("stats not aggregated: %+v", res.Stats)
	}
}

// TestParallelReportsCounters: SolveParallel counts the stale vertices its
// workers pop and reports a high-water mark of its stacks and pool. Over
// the set, the searches keep work queued and see the incumbent improve
// under queued vertices (one graph is solved while seeding the pool).
// The time limit only binds under the race detector and bbdebug, where
// the two largest searches (~1.1M and ~0.8M vertices) would take
// minutes; a cut-short run reports its counters all the same.
func TestParallelReportsCounters(t *testing.T) {
	plat := platform.New(3)
	var maxAS int
	var stale int64
	for _, g := range paperWorkloads(t, 4, 67) {
		res, err := SolveParallel(g, plat, ParallelParams{
			Params:  Params{Resources: ResourceBounds{TimeLimit: time.Second}},
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		maxAS += res.Stats.MaxActiveSet
		stale += res.Stats.PrunedActive
	}
	if maxAS <= 0 || stale <= 0 {
		t.Errorf("summed MaxActiveSet %d, PrunedActive %d; want both > 0", maxAS, stale)
	}
}
