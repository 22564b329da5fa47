package core

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// benchChains builds a pair of deep sibling leaves: identical placement
// prefixes except for the final step. Ping-ponging materialization between
// them is the LIFO steady state — common prefix of depth-1 — which is
// exactly the case the incremental diff is built for.
func benchChains(b *testing.B, g *taskgraph.Graph, plat platform.Platform) (left, right *vertex) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	st := sched.NewState(g, plat)
	v := &vertex{lb: taskgraph.MinTime, task: taskgraph.NoTask, proc: platform.NoProc}
	var ready []taskgraph.TaskID
	for {
		ready = st.ReadyTasks(ready[:0])
		if len(ready) == 0 {
			break
		}
		id := ready[rng.Intn(len(ready))]
		q := platform.Proc(rng.Intn(plat.M))
		pl := st.Place(id, q)
		w := &vertex{parent: v, task: id, proc: q, start: pl.Start, finish: pl.Finish, level: v.level + 1}
		if len(ready) > 1 || plat.M > 1 {
			// Sibling of w: same parent, different task or processor.
			sid, sq := id, platform.Proc((int(q)+1)%plat.M)
			if len(ready) > 1 && sq == q {
				for _, cand := range ready {
					if cand != id {
						sid = cand
						break
					}
				}
			}
			st.Undo()
			spl := st.Place(sid, sq)
			left = w
			right = &vertex{parent: v, task: sid, proc: sq, start: spl.Start, finish: spl.Finish, level: v.level + 1}
			st.Undo()
			st.Place(id, q)
		}
		v = w
	}
	if left == nil || right == nil {
		b.Fatal("graph too small to build sibling chains")
	}
	return left, right
}

// BenchmarkKernelMaterialize compares the incremental common-prefix diff
// against a from-scratch Replay for the sibling ping-pong access pattern.
func BenchmarkKernelMaterialize(b *testing.B) {
	g := kernelGraph(b, 16, 0, 51)
	plat := platform.New(3)
	left, right := benchChains(b, g, plat)

	b.Run("incremental", func(b *testing.B) {
		st := sched.NewState(g, plat)
		var chain []*vertex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i&1 == 0 {
				chain = materialize(st, left, chain)
			} else {
				chain = materialize(st, right, chain)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		st := sched.NewState(g, plat)
		var plBuf []sched.Placement
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := left
			if i&1 == 1 {
				v = right
			}
			plBuf = v.placements(plBuf[:0])
			if err := st.Replay(plBuf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelBound compares one full expansion's worth of lower-bound
// work: the factored cone path (snapshot once, one cone walk per branch
// task, O(1) per child) against a full forward sweep per child.
func BenchmarkKernelBound(b *testing.B) {
	g := kernelGraph(b, 16, 0, 52)
	plat := platform.New(3)
	st := sched.NewState(g, plat)
	// Park the state mid-search: half the tasks placed greedily.
	var ready []taskgraph.TaskID
	for st.NumPlaced() < g.NumTasks()/2 {
		ready = st.ReadyTasks(ready[:0])
		st.Place(ready[0], platform.Proc(st.NumPlaced()%plat.M))
	}
	ready = st.ReadyTasks(ready[:0])

	b.Run("cone", func(b *testing.B) {
		bnd := newBounder(g, BoundLB1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bnd.beginExpand(st)
			for _, id := range ready {
				for q := 0; q < plat.M; q++ {
					st.Place(id, platform.Proc(q))
					_ = bnd.boundChild(st, id)
					st.Undo()
				}
			}
		}
	})
	b.Run("fullsweep", func(b *testing.B) {
		bnd := newBounder(g, BoundLB1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range ready {
				for q := 0; q < plat.M; q++ {
					st.Place(id, platform.Proc(q))
					_ = bnd.bound(st)
					st.Undo()
				}
			}
		}
	})
}

// BenchmarkKernelArena compares slab allocation against per-vertex heap
// allocation (`&vertex{}`, what each surviving child cost before the arena).
func BenchmarkKernelArena(b *testing.B) {
	b.Run("arena", func(b *testing.B) {
		var a vertexArena
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := a.alloc()
			v.seq = uint64(i)
			if a.allocated() >= 1<<20 {
				a.release()
			}
		}
	})
	b.Run("heap", func(b *testing.B) {
		var sink *vertex
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := &vertex{}
			v.seq = uint64(i)
			sink = v
		}
		_ = sink
	})
}

// BenchmarkKernelSolve runs the full solver with the optimized kernel
// against the in-tree reference path on the same instances. This measures
// the kernel-structure delta only — both sides share the sched.State field
// caches. End-to-end comparisons with an earlier commit come from the
// repository benchmark, `bash cmd/bbperf/bench.sh`, run in both checkouts.
func BenchmarkKernelSolve(b *testing.B) {
	deep := kernelGraph(b, 16, 0, 53)
	wide := kernelGraph(b, 24, 4, 53)
	plat := platform.New(3)
	for _, tc := range []struct {
		name string
		g    *taskgraph.Graph
		p    Params
	}{
		{"lifo-df/optimized", deep, Params{Branching: BranchDF}},
		{"lifo-df/reference", deep, Params{Branching: BranchDF, ReferenceKernel: true}},
		{"lifo-df-wide/optimized", wide, Params{Branching: BranchDF}},
		{"lifo-df-wide/reference", wide, Params{Branching: BranchDF, ReferenceKernel: true}},
		{"lifo-bfn/optimized", deep, Params{}},
		{"lifo-bfn/reference", deep, Params{ReferenceKernel: true}},
		{"llb/optimized", deep, Params{Selection: SelectLLB}},
		{"llb/reference", deep, Params{Selection: SelectLLB, ReferenceKernel: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var vertices uint64
			for i := 0; i < b.N; i++ {
				res, err := Solve(tc.g, plat, tc.p)
				if err != nil {
					b.Fatal(err)
				}
				vertices += uint64(res.Stats.Generated)
			}
			b.ReportMetric(float64(vertices)/b.Elapsed().Seconds(), "vertices/s")
		})
	}
}
