package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// kernelStatsEqual compares every deterministic Stats field (everything
// except the wall-clock Elapsed).
func kernelStatsEqual(a, b Stats) bool {
	return a.Generated == b.Generated &&
		a.Expanded == b.Expanded &&
		a.Goals == b.Goals &&
		a.PrunedChildren == b.PrunedChildren &&
		a.PrunedActive == b.PrunedActive &&
		a.DominancePruned == b.DominancePruned &&
		a.Dropped == b.Dropped &&
		a.MaxActiveSet == b.MaxActiveSet &&
		a.IncumbentUpdates == b.IncumbentUpdates &&
		a.MeanPopAge == b.MeanPopAge &&
		a.TimedOut == b.TimedOut
}

// TestKernelDifferential proves the optimized kernel (incremental
// materialization + cone bound + arena) is behaviorally identical to the
// retained reference path: same cost, same proof flags, and the same
// vertex-for-vertex search trace as witnessed by every Stats counter,
// across the selection/bound/branching/BR/dominance parameter space.
func TestKernelDifferential(t *testing.T) {
	combos := []Params{
		{},
		{Selection: SelectLLB},
		{Selection: SelectLLB, LLBTie: TieDeepest},
		{Selection: SelectFIFO, Branching: BranchBF1},
		{Selection: SelectFIFO, Branching: BranchDF},
		{Bound: BoundLB0},
		{Bound: BoundNone, Branching: BranchDF},
		{Branching: BranchBF1},
		{Branching: BranchDF, Bound: BoundLB0},
		{BR: 0.25},
		{Selection: SelectLLB, BR: 0.1},
		{ChildOrder: ChildrenAsGenerated},
		{Dominance: true},
		{Resources: ResourceBounds{MaxActiveSet: 16}},
		{Resources: ResourceBounds{MaxChildren: 4}},
	}
	graphs := paperWorkloads(t, 3, 777)
	graphs = append(graphs, smallWorkloads(t, 3, 41)...)
	for gi, g := range graphs {
		for _, m := range []int{2, 3} {
			plat := platform.New(m)
			for _, p := range combos {
				if p.Selection == SelectFIFO && g.NumTasks() > 9 {
					continue // FIFO × BFn materializes the full tree; fuzzcheck covers it on small n
				}
				opt := mustSolve(t, g, plat, p)
				pr := p
				pr.ReferenceKernel = true
				ref := mustSolve(t, g, plat, pr)
				if opt.Cost != ref.Cost || opt.Optimal != ref.Optimal || opt.Guarantee != ref.Guarantee || opt.Reason != ref.Reason {
					t.Errorf("graph %d m=%d %v: optimized (cost=%d opt=%v guar=%v reason=%v) != reference (cost=%d opt=%v guar=%v reason=%v)",
						gi, m, p, opt.Cost, opt.Optimal, opt.Guarantee, opt.Reason,
						ref.Cost, ref.Optimal, ref.Guarantee, ref.Reason)
				}
				if !kernelStatsEqual(opt.Stats, ref.Stats) {
					t.Errorf("graph %d m=%d %v: stats diverge\noptimized: %+v\nreference: %+v", gi, m, p, opt.Stats, ref.Stats)
				}
			}
			// IDA shares the cone bound and the reusable child buffers.
			optIDA, err := SolveIDA(g, plat, Params{})
			if err != nil {
				t.Fatal(err)
			}
			refIDA, err := SolveIDA(g, plat, Params{ReferenceKernel: true})
			if err != nil {
				t.Fatal(err)
			}
			if optIDA.Cost != refIDA.Cost || !kernelStatsEqual(optIDA.Stats, refIDA.Stats) {
				t.Errorf("graph %d m=%d IDA: optimized (cost=%d %+v) != reference (cost=%d %+v)",
					gi, m, optIDA.Cost, optIDA.Stats, refIDA.Cost, refIDA.Stats)
			}
		}
	}
}

// TestKernelEventsIdentical locks down the observer contract: with an
// observer installed the optimized kernel must emit the exact event stream
// of the reference kernel — which forces exact (non-early-exit) bounds on
// every pruned child.
func TestKernelEventsIdentical(t *testing.T) {
	for _, g := range smallWorkloads(t, 4, 97) {
		for _, p := range []Params{{}, {Selection: SelectLLB}, {BR: 0.2}} {
			record := func(pp Params) []Event {
				var evs []Event
				pp.Observer = func(e Event) { evs = append(evs, e) }
				mustSolve(t, g, platform.New(2), pp)
				return evs
			}
			opt := record(p)
			pr := p
			pr.ReferenceKernel = true
			ref := record(pr)
			if len(opt) != len(ref) {
				t.Fatalf("%v: %d events optimized vs %d reference", p, len(opt), len(ref))
			}
			for i := range opt {
				if opt[i] != ref[i] {
					t.Fatalf("%v: event %d diverges: optimized %+v reference %+v", p, i, opt[i], ref[i])
				}
			}
		}
	}
}

// TestConeBoundMatchesFullSweep drives the bounder pair directly: from
// random partial schedules, every child's factored cone bound must equal
// the full-sweep bound bit for bit.
func TestConeBoundMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	graphs := paperWorkloads(t, 5, 1234)
	for gi, g := range graphs {
		for _, m := range []int{1, 2, 3} {
			plat := platform.New(m)
			for _, mode := range []BoundFunc{BoundLB0, BoundLB1, BoundNone} {
				st := sched.NewState(g, plat)
				full := newBounder(g, mode)
				cone := newBounder(g, mode)
				var ready []taskgraph.TaskID
				for depth := 0; ; depth++ {
					ready = st.ReadyTasks(ready[:0])
					if len(ready) == 0 {
						break
					}
					cone.beginExpand(st)
					for _, id := range ready {
						for q := 0; q < m; q++ {
							st.Place(id, platform.Proc(q))
							exact := full.bound(st)
							if got := cone.boundChild(st, id); got != exact {
								t.Fatalf("graph %d m=%d %v depth %d task %d p%d: cone bound %d != full sweep %d",
									gi, m, mode, depth, id, q, got, exact)
							}
							st.Undo()
						}
					}
					// Dive one step to a fresh random parent; occasionally
					// backtrack a few levels first so beginExpand has to
					// recommit snapshot levels over a diverged trail.
					if st.Depth() > 0 && rng.Intn(3) == 0 {
						for k := rng.Intn(3) + 1; k > 0 && st.Depth() > 0; k-- {
							st.Undo()
						}
						ready = st.ReadyTasks(ready[:0])
						if len(ready) == 0 {
							break
						}
					}
					st.Place(ready[rng.Intn(len(ready))], platform.Proc(rng.Intn(m)))
				}
			}
		}
	}
}

// TestMaterializeMatchesReplay cross-checks the incremental trail diff
// against a from-scratch replay for random pairs of vertices with varying
// shared ancestry.
func TestMaterializeMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := paperWorkloads(t, 4, 2024)
	for gi, g := range graphs {
		plat := platform.New(3)
		buildChain := func(depth int) *vertex {
			st := sched.NewState(g, plat)
			v := &vertex{lb: taskgraph.MinTime, task: taskgraph.NoTask, proc: platform.NoProc}
			var ready []taskgraph.TaskID
			for d := 0; d < depth; d++ {
				ready = st.ReadyTasks(ready[:0])
				if len(ready) == 0 {
					break
				}
				id := ready[rng.Intn(len(ready))]
				q := platform.Proc(rng.Intn(plat.M))
				pl := st.Place(id, q)
				v = &vertex{parent: v, task: id, proc: q, start: pl.Start, finish: pl.Finish, level: v.level + 1}
			}
			return v
		}

		st := sched.NewState(g, plat)
		replayed := sched.NewState(g, plat)
		var chain []*vertex
		var plBuf []sched.Placement
		for i := 0; i < 40; i++ {
			v := buildChain(rng.Intn(g.NumTasks() + 1))
			chain = materialize(st, v, chain)
			plBuf = v.placements(plBuf[:0])
			if err := replayed.Replay(plBuf); err != nil {
				t.Fatalf("graph %d: reference replay: %v", gi, err)
			}
			got, want := st.Placements(), replayed.Placements()
			if len(got) != len(want) {
				t.Fatalf("graph %d iter %d: %d placements after materialize, want %d", gi, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("graph %d iter %d: placement %d = %+v, want %+v", gi, i, j, got[j], want[j])
				}
			}
			if st.Lmax() != replayed.Lmax() {
				t.Fatalf("graph %d iter %d: Lmax %d != %d", gi, i, st.Lmax(), replayed.Lmax())
			}
		}
	}
}

// TestVertexArena covers the slab allocator: distinct zeroed vertices,
// slab-boundary growth, the allocation counter, and release semantics.
func TestVertexArena(t *testing.T) {
	var a vertexArena
	seen := make(map[*vertex]bool)
	const total = arenaChunk*2 + 17
	for i := 0; i < total; i++ {
		v := a.alloc()
		if *v != (vertex{}) {
			t.Fatalf("alloc %d: vertex not zeroed: %+v", i, *v)
		}
		if seen[v] {
			t.Fatalf("alloc %d: pointer %p handed out twice", i, v)
		}
		seen[v] = true
		v.seq = uint64(i) // scribble to catch aliasing with later allocs
	}
	if a.allocated() != total {
		t.Fatalf("allocated() = %d, want %d", a.allocated(), total)
	}
	if want := 3; len(a.chunks) != want {
		t.Fatalf("chunks = %d, want %d", len(a.chunks), want)
	}
	a.release()
	if a.allocated() != 0 || a.chunks != nil {
		t.Fatalf("release left %d allocated, %d chunks", a.allocated(), len(a.chunks))
	}
	if v := a.alloc(); *v != (vertex{}) {
		t.Fatalf("post-release alloc not zeroed: %+v", *v)
	}
}

// TestParallelKernelStress is the arena-under-donation race gate: many
// workers over instances wide enough to force cross-worker vertex
// donation, with both kernels, asserting the shared optimum. Run under
// `go test -race` (scripts/check.sh does) this checks that arena-allocated
// vertices published through the pool are safe to materialize from any
// worker.
func TestParallelKernelStress(t *testing.T) {
	graphs := stressWorkloads(t, 3, 72)
	wide := taskgraph.Independent(7, 7)
	if err := deadline.Assign(wide, 1.5, deadline.EqualSlack); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, wide)
	for gi, g := range graphs {
		plat := platform.New(3)
		seq := mustSolve(t, g, plat, Params{})
		for _, ref := range []bool{false, true} {
			res, err := SolveParallel(g, plat, ParallelParams{
				Params:  Params{ReferenceKernel: ref},
				Workers: 12,
			})
			if err != nil {
				t.Fatalf("graph %d ref=%v: %v", gi, ref, err)
			}
			if res.Cost != seq.Cost {
				t.Fatalf("graph %d ref=%v: parallel cost %d != sequential %d", gi, ref, res.Cost, seq.Cost)
			}
			if err := res.Schedule.Check(); err != nil {
				t.Fatalf("graph %d ref=%v: invalid schedule: %v", gi, ref, err)
			}
		}
	}
}

// TestDriversRejectMismatchedPlatform: an affinity table that does not
// match the graph is an input error for every driver under every
// upper-bound mode — never a panic or a *PanicError, and always the error
// Solve reports.
func TestDriversRejectMismatchedPlatform(t *testing.T) {
	g := taskgraph.Diamond()
	plat := platform.Platform{M: 2, CommDelay: 1, Affinity: []uint64{1}}
	for _, p := range []Params{{}, {UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity}} {
		_, want := Solve(g, plat, p)
		if want == nil {
			t.Fatalf("U=%v: Solve accepted %d affinity masks for %d tasks", p.UpperBound, len(plat.Affinity), g.NumTasks())
		}
		drivers := []struct {
			name string
			run  func() error
		}{
			{"SolveParallel", func() error { _, err := SolveParallel(g, plat, ParallelParams{Params: p, Workers: 2}); return err }},
			{"SolveIDA", func() error { _, err := SolveIDA(g, plat, p); return err }},
			{"EnumerateFrontier", func() error { _, err := EnumerateFrontier(g, plat, p, 4); return err }},
		}
		for _, d := range drivers {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panicked: %v", r)
					}
				}()
				return d.run()
			}()
			var pe *PanicError
			if err == nil || errors.As(err, &pe) || err.Error() != want.Error() {
				t.Errorf("U=%v %s: error %v, want Solve's %q", p.UpperBound, d.name, err, want)
			}
		}
	}
}

// kernelGraph builds a deterministic deadline-assigned instance for the
// kernel micro-benchmarks: the paper's §4.1 depth range when depth <= 0, or
// a fixed graph depth for wider (parallelism-rich) instances.
func kernelGraph(tb testing.TB, n, depth int, seed int64) *taskgraph.Graph {
	tb.Helper()
	p := gen.Defaults()
	p.NMin, p.NMax = n, n
	if depth > 0 {
		p.DepthMin, p.DepthMax = depth, depth+1
	}
	g := gen.New(p, seed).Graph()
	if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
		tb.Fatal(err)
	}
	return g
}
