package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// ParallelParams configures SolveParallel. The embedded Params keep their
// meaning with three restrictions, each rejected with an error: the
// selection rule is fixed (every worker runs a LIFO dive over its own
// stack), the domination rule is unsupported (a shared table would
// serialize the workers), and the MAXSZAS/MAXSZDB resource bounds are
// unsupported (their drop-the-worst semantics are inherently global).
type ParallelParams struct {
	Params

	// Workers is the number of search goroutines; 0 means GOMAXPROCS.
	Workers int
}

// SolveParallel is the multi-core counterpart of Solve: a work-pool
// parallel branch-and-bound with a shared atomic incumbent.
//
// Architecture: the root is expanded breadth-first until the frontier holds
// a few vertices per worker (or the search finishes outright). The frontier
// seeds a mutex-guarded global pool; each worker then runs the sequential
// LIFO dive on a private stack with a private scheduling state, pruning
// against the shared incumbent cost (an atomic int64, so the hot path never
// takes a lock). Workers donate the bottom half of their stack to the pool
// whenever it runs dry and park on a condition variable when no work
// exists; the search terminates when all workers are parked.
//
// The returned cost is exactly the sequential optimum (for BFn, BR=0);
// Stats are aggregated across workers and are NOT run-to-run deterministic
// (vertex counts vary with interleaving, the cost never does).
func SolveParallel(g *taskgraph.Graph, plat platform.Platform, pp ParallelParams) (Result, error) {
	return SolveParallelContext(context.Background(), g, plat, pp)
}

// SolveParallelContext is SolveParallel under a caller context.
//
// Anytime contract: a timeout or cancellation stops every worker and
// returns the best incumbent recorded so far with the matching typed
// Reason (TermTimeLimit/TermCanceled) and a nil error. A panic in any
// worker is recovered, the remaining workers are drained, and the call
// returns the salvaged incumbent (Reason == TermPanic) together with a
// *PanicError — one poisoned instance must not kill a fleet.
func SolveParallelContext(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, pp ParallelParams) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := pp.Params
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := plat.Validate(); err != nil {
		return Result{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, err
	}
	if g.NumTasks() == 0 {
		return Result{}, fmt.Errorf("core: empty task graph")
	}
	if p.Dominance {
		return Result{}, fmt.Errorf("core: dominance rule is not supported by the parallel solver")
	}
	if p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0 {
		return Result{}, fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by the parallel solver")
	}
	if p.Prefix != nil || p.Link != nil {
		return Result{}, fmt.Errorf("core: the parallel solver does not support Prefix or Link")
	}
	if p.UseGlobalBound {
		return Result{}, fmt.Errorf("core: the parallel solver does not support global-bound termination")
	}
	if p.Selection != SelectLIFO {
		return Result{}, fmt.Errorf("core: parallel workers are LIFO by construction; got S=%v", p.Selection)
	}
	workers := pp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ps := &parSolver{g: g, plat: plat, p: p, ctx: ctx, workers: workers}
	if p.Dedup {
		// One table shared by every worker: the striped locks keep probe
		// and store contention per-bucket, and a duplicate pruned by any
		// worker cites a state some worker has already committed to
		// exploring fully.
		ps.tt = dedupTable(p)
	}
	switch p.UpperBound {
	case UpperBoundEDF:
		cost, schedule, err := edf.UpperBound(g, plat)
		if err != nil {
			return Result{}, err
		}
		ps.incCost.Store(int64(cost))
		ps.edfInc = schedule
	case UpperBoundFixed:
		ps.incCost.Store(int64(p.FixedUpperBound))
	case UpperBoundSeeded:
		seed := p.SeedSchedule
		if !seed.Complete() || seed.Graph != g {
			return Result{}, fmt.Errorf("core: seed schedule incomplete or over a different graph")
		}
		if err := seed.Check(); err != nil {
			return Result{}, fmt.Errorf("core: invalid seed schedule: %w", err)
		}
		ps.incCost.Store(int64(seed.Lmax()))
		ps.edfInc = seed
	}

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		ps.deadline = start.Add(p.Resources.TimeLimit)
	}
	err := ps.run() // returns only after every worker has joined
	fillTableStats(&ps.stats, ps.tt)
	releaseTable(p, ps.tt, err != nil)
	ps.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	if err != nil {
		// Salvage the incumbent: the search machinery failed, but every
		// adopted goal was recorded under incMu and replays on a fresh
		// state, so the best solution found before the failure survives.
		ps.failed = true
		res, rerr := ps.result()
		if rerr != nil {
			return Result{}, err
		}
		return res, err
	}
	return ps.result()
}

type parSolver struct {
	g       *taskgraph.Graph
	plat    platform.Platform
	p       Params
	ctx     context.Context
	workers int
	failed  bool // a worker panicked or errored; proofs are off

	incCost atomic.Int64
	incMu   sync.Mutex
	incSeq  []sched.Placement
	edfInc  *sched.Schedule

	tt *transpose.Table // shared duplicate-detection table; nil when off

	pool     []*vertex
	poolMu   sync.Mutex
	poolCond *sync.Cond
	idle     int
	done     bool

	deadline time.Time
	timedOut atomic.Bool
	canceled atomic.Bool

	stats     Stats
	generated atomic.Int64
	expanded  atomic.Int64
	goals     atomic.Int64
	prunedCh  atomic.Int64
	dupPruned atomic.Int64
	updates   atomic.Int64
}

// pruneLimitAtomic mirrors solver.pruneLimit against the atomic incumbent.
func (ps *parSolver) pruneLimitAtomic() taskgraph.Time {
	c := taskgraph.Time(ps.incCost.Load())
	if ps.p.BR == 0 || c >= taskgraph.Infinity/2 {
		return c
	}
	abs := c
	if abs < 0 {
		abs = -abs
	}
	return c - taskgraph.Time(ps.p.BR*float64(abs))
}

func (ps *parSolver) run() (err error) {
	ps.poolCond = sync.NewCond(&ps.poolMu)

	// The seeding pass runs on the caller's goroutine; recover its panics
	// into the same *PanicError contract as the workers'.
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	// Seed the pool by expanding breadth-first from the root with a
	// throwaway sequential worker until the frontier is wide enough.
	seedTarget := ps.workers * 8
	w := newParWorker(ps, 0)
	frontier := []*vertex{{lb: taskgraph.MinTime, task: taskgraph.NoTask, proc: platform.NoProc}}
	for len(frontier) > 0 && len(frontier) < seedTarget {
		if ps.ctx.Err() != nil {
			ps.canceled.Store(true)
			return nil
		}
		v := frontier[0]
		frontier = frontier[1:]
		kids, err := w.expand(v)
		if err != nil {
			return err
		}
		frontier = append(frontier, kids...)
	}
	if len(frontier) == 0 {
		// The seeding pass already exhausted the search.
		return nil
	}
	ps.pool = frontier

	var wg sync.WaitGroup
	errs := make([]error, ps.workers)
	for i := 0; i < ps.workers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[idx] = &PanicError{Value: r, Stack: debug.Stack()}
					// Wake the fleet so the failure propagates instead
					// of deadlocking parked peers. The panic cannot have
					// happened while poolMu was held: nothing under the
					// lock panics, so taking it here is safe.
					ps.poolMu.Lock()
					ps.done = true
					ps.poolCond.Broadcast()
					ps.poolMu.Unlock()
				}
			}()
			errs[idx] = newParWorker(ps, idx+1).loop()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parWorker is one search goroutine's private machinery. Each worker owns
// a private arena; donated vertices stay valid across worker boundaries
// because no arena is released before the whole search terminates (see
// vertexArena's lifetime rules).
type parWorker struct {
	ps    *parSolver
	st    *sched.State
	bnd   *bounder
	br    *brancher
	stack []*vertex
	arena vertexArena

	plBuf    []sched.Placement
	readyBuf []taskgraph.TaskID
	chainBuf []*vertex
	seq      uint64
	iter     int
}

// newParWorker builds worker machinery with a private seq namespace: the
// worker index occupies the high bits, so vertex identities (and therefore
// observer event Seqs) stay unique across concurrently emitting workers
// without an atomic counter on the hot path. Each worker would need to
// generate 2^48 vertices to collide.
func newParWorker(ps *parSolver, idx int) *parWorker {
	w := &parWorker{
		ps:  ps,
		st:  sched.NewState(ps.g, ps.plat),
		bnd: newBounder(ps.g, ps.p.Bound),
		br:  newBrancher(ps.g, ps.p.Branching),
		seq: uint64(idx) << 48,
	}
	if ps.tt != nil {
		w.st.EnableSignature()
	}
	return w
}

// emit reports an event to a (necessarily concurrency-safe) observer. The
// parallel stream has unique Seqs but no global order; Incumbent is the
// shared atomic cost at emission time.
func (ps *parSolver) emit(kind EventKind, seq, parent uint64, task taskgraph.TaskID,
	proc platform.Proc, level int32, lb taskgraph.Time) {
	if ps.p.Observer == nil {
		return
	}
	ps.p.Observer(Event{
		Kind: kind, Seq: seq, Parent: parent, Task: task, Proc: proc,
		Level: level, LB: lb, Incumbent: taskgraph.Time(ps.incCost.Load()),
	})
}

// shutdown signals every worker to stop and wakes the parked ones.
func (ps *parSolver) shutdown() {
	ps.poolMu.Lock()
	ps.done = true
	ps.poolCond.Broadcast()
	ps.poolMu.Unlock()
}

// testHookExpand, when non-nil, runs at the top of every vertex expansion.
// Tests use it to inject deterministic worker panics; it must be set
// before the solve starts and cleared after it returns.
var testHookExpand func(v *vertex)

// expand materializes v, generates its surviving children (ordered so the
// most promising is LAST, ready for a stack pop), and handles goals.
func (w *parWorker) expand(v *vertex) ([]*vertex, error) {
	ps := w.ps
	if testHookExpand != nil {
		testHookExpand(v)
	}
	ref := ps.p.ReferenceKernel
	if ref {
		w.plBuf = v.placements(w.plBuf[:0])
		if err := w.st.Replay(w.plBuf); err != nil {
			return nil, err
		}
	} else {
		w.chainBuf = materialize(w.st, v, w.chainBuf)
	}
	ps.expanded.Add(1)
	if ps.tt != nil {
		// Store on expansion (see the sequential solver): a concurrent
		// duplicate pruned against this entry relies on this worker's
		// dive — and everything it donates — being fully processed, which
		// termination guarantees whenever the run ends TermExhausted.
		lo, hi := w.st.Signature()
		ps.tt.Store(lo, hi, v.level, int64(v.lb))
	}
	var parentSeq uint64
	if v.parent != nil {
		parentSeq = v.parent.seq
	}
	ps.emit(EventExpand, v.seq, parentSeq, v.task, v.proc, v.level, v.lb)

	n := int32(ps.g.NumTasks())
	if !ref {
		w.bnd.beginExpand(w.st)
	}
	var kids []*vertex
	w.readyBuf = w.br.tasks(w.st, w.readyBuf[:0])
	for _, id := range w.readyBuf {
		for q := 0; q < ps.plat.M; q++ {
			if !ps.plat.Allows(id, platform.Proc(q)) {
				continue
			}
			pl := w.st.Place(id, platform.Proc(q))
			var lb taskgraph.Time
			if ref {
				lb = w.bnd.bound(w.st)
			} else {
				lb = w.bnd.boundChild(w.st, id)
			}
			ps.generated.Add(1)
			w.seq++

			if v.level+1 == n {
				ps.goals.Add(1)
				ps.emit(EventGoal, w.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
				if w.tryAdoptIncumbent(lb) {
					ps.emit(EventIncumbent, w.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
				}
				w.st.Undo()
				continue
			}
			if lb >= ps.pruneLimitAtomic() {
				ps.prunedCh.Add(1)
				ps.emit(EventPrune, w.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
				w.st.Undo()
				continue
			}
			if ps.tt != nil {
				slo, shi := w.st.Signature()
				if ps.tt.Probe(slo, shi, v.level+1, int64(lb)) {
					ps.dupPruned.Add(1)
					ps.emit(EventDuplicate, w.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
					w.st.Undo()
					continue
				}
			}
			var k *vertex
			if ref {
				k = &vertex{}
			} else {
				k = w.arena.alloc()
			}
			*k = vertex{
				parent: v, lb: lb, start: pl.Start, finish: pl.Finish,
				seq: w.seq, task: id, proc: platform.Proc(q), level: v.level + 1,
			}
			kids = append(kids, k)
			ps.emit(EventGenerate, w.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
			w.st.Undo()
		}
	}
	if ps.p.ChildOrder == ChildrenByLowerBound {
		// Descending lb so the least-bound child is popped first.
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && kids[j-1].lb < kids[j].lb; j-- {
				kids[j-1], kids[j] = kids[j], kids[j-1]
			}
		}
	} else {
		for i, j := 0, len(kids)-1; i < j; i, j = i+1, j-1 {
			kids[i], kids[j] = kids[j], kids[i]
		}
	}
	return kids, nil
}

// tryAdoptIncumbent installs a goal (the worker's current state) as the new
// incumbent if it still improves on the shared cost, reporting whether it
// won the adoption race.
func (w *parWorker) tryAdoptIncumbent(cost taskgraph.Time) bool {
	ps := w.ps
	for {
		cur := ps.incCost.Load()
		if int64(cost) >= cur {
			return false
		}
		if ps.incCost.CompareAndSwap(cur, int64(cost)) {
			break
		}
	}
	ps.updates.Add(1)
	ps.incMu.Lock()
	// Another goal may have won the race with an even better cost since our
	// CAS; only record the sequence if we still match the best cost.
	if int64(cost) == ps.incCost.Load() {
		ps.incSeq = w.st.AppendPlacements(ps.incSeq[:0])
	}
	ps.incMu.Unlock()
	return true
}

const donateThreshold = 64

// loop is the worker main loop: pop locally, refill from or donate to the
// shared pool, park when the system has no work.
func (w *parWorker) loop() error {
	ps := w.ps
	for {
		if w.iter&255 == 0 {
			if ps.ctx.Err() != nil {
				ps.canceled.Store(true)
				ps.shutdown()
				return nil
			}
			//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
			if !ps.deadline.IsZero() && time.Now().After(ps.deadline) {
				ps.timedOut.Store(true)
				ps.shutdown()
				return nil
			}
		}
		w.iter++

		v := w.take()
		if v == nil {
			return nil // search complete
		}
		if v.lb >= ps.pruneLimitAtomic() {
			continue
		}
		kids, err := w.expand(v)
		if err != nil {
			// Wake everyone so the error propagates instead of deadlocking.
			ps.shutdown()
			return err
		}
		w.stack = append(w.stack, kids...)

		// Donate the bottom half of an oversized stack when peers starve.
		if len(w.stack) > donateThreshold {
			ps.poolMu.Lock()
			if ps.idle > 0 && len(ps.pool) < ps.workers {
				half := len(w.stack) / 2
				ps.pool = append(ps.pool, w.stack[:half]...)
				w.stack = append(w.stack[:0], w.stack[half:]...)
				ps.poolCond.Broadcast()
			}
			ps.poolMu.Unlock()
		}
	}
}

// take returns the next vertex for this worker, or nil when the global
// search is finished.
func (w *parWorker) take() *vertex {
	if n := len(w.stack); n > 0 {
		v := w.stack[n-1]
		w.stack[n-1] = nil
		w.stack = w.stack[:n-1]
		return v
	}
	ps := w.ps
	ps.poolMu.Lock()
	defer ps.poolMu.Unlock()
	for {
		if ps.done {
			return nil
		}
		if n := len(ps.pool); n > 0 {
			// Take up to a 1/workers share of the pool.
			share := n / ps.workers
			if share < 1 {
				share = 1
			}
			w.stack = append(w.stack[:0], ps.pool[n-share:]...)
			for i := n - share; i < n; i++ {
				ps.pool[i] = nil
			}
			ps.pool = ps.pool[:n-share]
			v := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			return v
		}
		ps.idle++
		if ps.idle == ps.workers {
			ps.done = true
			ps.poolCond.Broadcast()
			ps.idle--
			return nil
		}
		ps.poolCond.Wait()
		ps.idle--
	}
}

func (ps *parSolver) result() (Result, error) {
	ps.stats.Generated = ps.generated.Load()
	ps.stats.Expanded = ps.expanded.Load()
	ps.stats.Goals = ps.goals.Load()
	ps.stats.PrunedChildren = ps.prunedCh.Load()
	ps.stats.DedupPruned = ps.dupPruned.Load()
	ps.stats.IncumbentUpdates = int(ps.updates.Load())
	ps.stats.TimedOut = ps.timedOut.Load()

	res := Result{Cost: taskgraph.Infinity, Params: ps.p, Stats: ps.stats}
	switch {
	case ps.incSeq != nil:
		fresh := sched.NewState(ps.g, ps.plat)
		if err := fresh.Replay(ps.incSeq); err != nil {
			return Result{}, fmt.Errorf("core: parallel incumbent replay: %w", err)
		}
		res.Schedule = fresh.Snapshot()
		res.Cost = fresh.Lmax()
	case ps.edfInc != nil:
		res.Schedule = ps.edfInc
		res.Cost = taskgraph.Time(ps.incCost.Load())
	}
	switch {
	case ps.failed:
		res.Reason = TermPanic
	case ps.canceled.Load():
		res.Reason = TermCanceled
	case ps.stats.TimedOut:
		res.Reason = TermTimeLimit
	default:
		res.Reason = TermExhausted
	}
	exhausted := res.Reason == TermExhausted
	res.Guarantee = exhausted && ps.p.Branching.Exact() && res.Schedule != nil
	res.Optimal = res.Guarantee && ps.p.BR == 0
	return res, nil
}
