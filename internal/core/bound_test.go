package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// completeGreedily finishes a partial schedule by placing every remaining
// ready task on the allowed processor with the earliest start, returning
// the final Lmax. Any completion's cost upper-bounds the optimal completion
// cost, so bounds must stay below it.
func completeGreedily(st *sched.State) taskgraph.Time {
	for st.NumPlaced() < st.G.NumTasks() {
		id := st.ReadyTasks(nil)[0]
		best, bestStart := platform.NoProc, taskgraph.Infinity
		for q := platform.Proc(0); int(q) < st.P.M; q++ {
			if s := st.EST(id, q); st.Allows(id, q) && s < bestStart {
				bestStart, best = s, q
			}
		}
		st.Place(id, best)
	}
	return st.Lmax()
}

// boundPlatforms are the platforms the bound oracles run on: identical
// processors, where the heterogeneous bound must reduce to LB1, and
// speed-only, affinity-only and mixed platforms at m=3, where the fastest
// allowed processor and the earliest-free one often differ.
func boundPlatforms(n int) []struct {
	name string
	plat platform.Platform
} {
	affinity := func() []uint64 {
		masks := make([]uint64, n)
		for id := range masks {
			masks[id] = []uint64{0b111, 0b011, 0b110, 0b101, 0b100}[id%5]
		}
		return masks
	}
	return []struct {
		name string
		plat platform.Platform
	}{
		{"m=1", platform.New(1)},
		{"m=2", platform.New(2)},
		{"speeds", platform.Platform{M: 3, CommDelay: 1, Speed: []float64{1, 2, 0.5}}},
		{"affinity", platform.Platform{M: 3, CommDelay: 1, Affinity: affinity()}},
		{"mixed", platform.Platform{M: 3, CommDelay: 1, Speed: []float64{2, 1, 1}, Affinity: affinity()}},
	}
}

// decoupledBound is the heterogeneous LB1 before it was coupled to the
// processors, raising l like boundHetero: an unscheduled task starts no
// earlier than the earliest-free processor its mask allows and runs for
// its fastest allowed execution time, even when those are two different
// processors.
func decoupledBound(st *sched.State, l taskgraph.Time) taskgraph.Time {
	g := st.G
	topo, _ := g.TopoOrder()
	fhat := make([]taskgraph.Time, g.NumTasks())
	for _, id := range topo {
		if st.Placed(id) {
			fhat[id] = st.Finish(id)
			continue
		}
		free := taskgraph.Infinity
		for q := platform.Proc(0); int(q) < st.P.M; q++ {
			if st.Allows(id, q) {
				free = min(free, st.ProcFree(q))
			}
		}
		ready := max(g.Task(id).Arrival(), free)
		for _, pred := range g.Preds(id) {
			ready = max(ready, fhat[pred])
		}
		fhat[id] = ready + st.MinExec(id)
		l = max(l, fhat[id]-g.Task(id).AbsDeadline())
	}
	return l
}

// TestBoundsAdmissibleAgainstOracle verifies the defining property of LB0
// and LB1 on random partial schedules: the bound never exceeds the TRUE
// optimal completion cost (computed by constrained brute force). On
// heterogeneous platforms LB1 is the processor-coupled bound, which must
// also be at least the decoupled one; on identical processors the coupled
// sweep must equal the homogeneous LB1 sweep.
func TestBoundsAdmissibleAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := smallWorkloads(t, 6, 31)
	tighter := 0 // hetero prefixes where coupling beat the decoupled bound
	for gi, g := range graphs {
		for _, pc := range boundPlatforms(g.NumTasks()) {
			for trial := 0; trial < 4; trial++ {
				plat := pc.plat
				st := sched.NewState(g, plat)
				lb0 := newBounder(st, BoundLB0)
				lb1 := newBounder(st, BoundLB1)

				// Random partial prefix.
				steps := rng.Intn(g.NumTasks())
				for i := 0; i < steps; i++ {
					ready := st.ReadyTasks(nil)
					id := ready[rng.Intn(len(ready))]
					q := platform.Proc(rng.Intn(plat.M))
					for !st.Allows(id, q) {
						q = platform.Proc(rng.Intn(plat.M))
					}
					st.Place(id, q)
				}

				b0, b1 := lb0.bound(st), lb1.bound(st)
				if b1 < b0 {
					t.Errorf("graph %d %s: LB1 (%d) weaker than LB0 (%d): contention term must only tighten",
						gi, pc.name, b1, b0)
				}
				if st.Hetero() {
					// Compared from MinTime, so the prefix's Lmax cannot
					// hide the unscheduled tasks' terms.
					c, d := lb1.boundHetero(st, taskgraph.MinTime), decoupledBound(st, taskgraph.MinTime)
					if c < d {
						t.Errorf("graph %d %s: coupled LB1 (%d) looser than the decoupled bound (%d)", gi, pc.name, c, d)
					}
					if c > d {
						tighter++
					}
				} else {
					// Every finish estimate, not just their maximum
					// lateness, must be LB1's.
					coupled := newBounder(st, BoundLB1)
					coupled.initHetero(st)
					if c := coupled.boundHetero(st, st.Lmax()); c != b1 || !slices.Equal(coupled.fhat, lb1.fhat) {
						t.Errorf("graph %d %s: coupled sweep %d %v on identical processors, LB1 %d %v",
							gi, pc.name, c, coupled.fhat, b1, lb1.fhat)
					}
				}

				// True optimal completion cost from this prefix.
				opt := optimalCompletion(st, plat)
				if b0 > opt {
					t.Errorf("graph %d %s: LB0 (%d) exceeds optimal completion (%d) — inadmissible", gi, pc.name, b0, opt)
				}
				if b1 > opt {
					t.Errorf("graph %d %s: LB1 (%d) exceeds optimal completion (%d) — inadmissible", gi, pc.name, b1, opt)
				}

				// A real completion (greedy) can never beat the bound either.
				greedy := completeGreedily(st)
				if b1 > greedy {
					t.Errorf("graph %d %s: LB1 (%d) exceeds an actual completion (%d)", gi, pc.name, b1, greedy)
				}
			}
		}
	}
	if tighter == 0 {
		t.Error("the coupled bound never beat the decoupled one; the prefixes do not exercise the coupling")
	}
}

// optimalCompletion exhaustively computes the best Lmax reachable from the
// current partial schedule.
func optimalCompletion(st *sched.State, plat platform.Platform) taskgraph.Time {
	n := st.G.NumTasks()
	best := taskgraph.Infinity
	var rec func()
	rec = func() {
		if st.NumPlaced() == n {
			if st.Lmax() < best {
				best = st.Lmax()
			}
			return
		}
		for _, id := range st.ReadyTasks(nil) {
			for q := 0; q < plat.M; q++ {
				if !plat.Allows(id, platform.Proc(q)) {
					continue
				}
				st.Place(id, platform.Proc(q))
				rec()
				st.Undo()
			}
		}
	}
	rec()
	return best
}

func TestBoundExactAtGoal(t *testing.T) {
	// At a goal vertex both bounds equal the true Lmax.
	g := taskgraph.Diamond()
	plat := platform.New(2)
	st := sched.NewState(g, plat)
	st.Place(0, 0)
	st.Place(1, 1)
	st.Place(2, 0)
	st.Place(3, 0)
	for _, mode := range []BoundFunc{BoundLB0, BoundLB1, BoundNone} {
		b := newBounder(st, mode)
		if got := b.bound(st); got != st.Lmax() {
			t.Errorf("%v at goal = %d, want exact %d", mode, got, st.Lmax())
		}
	}
}

func TestBoundEmptyScheduleEqualsGraphBound(t *testing.T) {
	// On the empty schedule, LB0 is the pure critical-path lateness bound:
	// max over tasks of (longest arrival-respecting path lateness). For the
	// Diamond (all D=100, no phases) that is cp(i) − 100 where cp(d)=9.
	g := taskgraph.Diamond()
	st := sched.NewState(g, platform.New(2))
	b := newBounder(st, BoundLB0)
	if got := b.bound(st); got != 9-100 {
		t.Fatalf("LB0(empty) = %d, want -91", got)
	}
	// LB1's ℓ_min is 0 on an empty schedule — identical value here.
	b1 := newBounder(st, BoundLB1)
	if got := b1.bound(st); got != 9-100 {
		t.Fatalf("LB1(empty) = %d, want -91", got)
	}
}

func TestLB1TightensUnderContention(t *testing.T) {
	// Fork-join with width 4 on 1 processor: after placing the fork task,
	// every middle task must wait for the processor (ℓ_min = finish of
	// fork), which LB0 ignores but LB1 exploits.
	g := taskgraph.ForkJoin(4, 10, 0)
	st := sched.NewState(g, platform.New(1))
	st.Place(0, 0) // fork: [0,10)

	lb0 := newBounder(st, BoundLB0).bound(st)
	lb1 := newBounder(st, BoundLB1).bound(st)
	if lb1 <= lb0 {
		// With zero phases both see pred finish 10 — equal here; force the
		// contention: place one middle task so ℓ_min rises past the others'
		// data-ready times.
		st.Place(1, 0) // [10,20): ℓ_min = 20
		lb0 = newBounder(st, BoundLB0).bound(st)
		lb1 = newBounder(st, BoundLB1).bound(st)
		if lb1 <= lb0 {
			t.Fatalf("LB1 (%d) not tighter than LB0 (%d) under processor contention", lb1, lb0)
		}
	}
}

// TestLB1SearchSmallerThanLB0 is the paper's C2 in miniature: both bounds
// find the same optimum, and in aggregate the LB1 search explores no more
// vertices than LB0. (Per-instance the tighter bound can occasionally lose
// by steering the LIFO dive differently, so the assertion is on the total.)
func TestLB1SearchSmallerThanLB0(t *testing.T) {
	graphs := smallWorkloads(t, 8, 37)
	var tot0, tot1 int64
	for gi, g := range graphs {
		for _, m := range []int{1, 2, 3} {
			plat := platform.New(m)
			r0 := mustSolve(t, g, plat, Params{Bound: BoundLB0})
			r1 := mustSolve(t, g, plat, Params{Bound: BoundLB1})
			if r0.Cost != r1.Cost {
				t.Errorf("graph %d m=%d: LB0 and LB1 disagree on the optimum: %d vs %d",
					gi, m, r0.Cost, r1.Cost)
			}
			tot0 += r0.Stats.Generated
			tot1 += r1.Stats.Generated
		}
	}
	if tot1 > tot0 {
		t.Errorf("LB1 searched more vertices in total than LB0: %d > %d", tot1, tot0)
	}
}

func BenchmarkBoundLB1(b *testing.B) {
	g := paperWorkloads(b, 1, 41)[0]
	st := sched.NewState(g, platform.New(3))
	st.Place(st.ReadyTasks(nil)[0], 0)
	bd := newBounder(st, BoundLB1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.bound(st)
	}
}
