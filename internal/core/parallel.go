package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// ParallelParams configures SolveParallel. The embedded Params keep their
// meaning with four restrictions, each rejected with an error: the
// selection rule is fixed (every worker runs a LIFO dive over its own
// stack), the domination rule and Dedup are unsupported (a shared table
// would serialize the workers; DuplicateFree removes Dedup's duplicates
// without one), and the MAXSZAS/MAXSZDB resource bounds are unsupported
// (their drop-the-worst semantics are inherently global).
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
// Stats are summed over the workers and are NOT run-to-run deterministic
// (vertex counts vary with interleaving, the cost never does). A worker
// reads the shared incumbent once per expansion and again after each of its
// own adoptions, so a peer's adoption reaches it at its next expansion: a
// child it could already have pruned may enter its stack and be discarded
// when popped — later, never wrongly.
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
	inc, err := prepare(g, plat, p, func() error {
		switch {
		case p.Dominance:
			return fmt.Errorf("core: dominance rule is not supported by the parallel solver")
		case p.Dedup:
			return fmt.Errorf("core: the parallel solver does not support Dedup; use DuplicateFree")
		case p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0:
			return fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by the parallel solver")
		case p.Prefix != nil || p.Link != nil:
			return fmt.Errorf("core: the parallel solver does not support Prefix or Link")
		case p.UseGlobalBound:
			return fmt.Errorf("core: the parallel solver does not support global-bound termination")
		case p.Selection != SelectLIFO:
			return fmt.Errorf("core: parallel workers are LIFO by construction; got S=%v", p.Selection)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	workers := pp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ps := &parSolver{g: g, plat: plat, p: p, ctx: ctx, workers: workers, inc: inc}
	ps.incCost.Store(int64(inc.cost))

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		ps.deadline = start.Add(p.Resources.TimeLimit)
	}
	err = ps.run() // returns only after every worker has joined
	var stats Stats
	for _, w := range ps.ws {
		stats.add(w.stats)
	}
	stats.MaxActiveSet += ps.poolHigh
	stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	stats.TimedOut = ps.timedOut.Load()

	reason := TermExhausted
	switch {
	case err != nil:
		reason = TermPanic
	case ps.canceled.Load():
		reason = TermCanceled
	case stats.TimedOut:
		reason = TermTimeLimit
	}
	ps.inc.cost = taskgraph.Time(ps.incCost.Load())
	res, rerr := result(g, plat, p, ps.inc, stats, reason)
	if err != nil {
		// Salvage the incumbent: the search machinery failed, but every
		// adopted goal was recorded under incMu and replays on a fresh
		// state, so the best solution found before the failure survives.
		if rerr != nil {
			return Result{}, err
		}
		return res, err
	}
	return res, rerr
}

type parSolver struct {
	g       *taskgraph.Graph
	plat    platform.Platform
	p       Params
	ctx     context.Context
	workers int
	ws      []*parWorker // the seeding worker, then the pool workers

	incCost atomic.Int64
	incMu   sync.Mutex
	inc     incumbent // seq and seed, guarded by incMu; incCost holds the cost

	pool     []*vertex
	poolHigh int // pool high-water mark, the seeding frontier included
	poolMu   sync.Mutex
	poolCond *sync.Cond
	idle     int
	done     bool

	deadline time.Time
	timedOut atomic.Bool
	canceled atomic.Bool
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
		frontier = w.branch(v, frontier[1:])
		ps.poolHigh = max(ps.poolHigh, len(frontier)) // no worker runs yet
	}
	if len(frontier) == 0 {
		// The seeding pass already exhausted the search.
		return nil
	}
	ps.pool = frontier

	var wg sync.WaitGroup
	errs := make([]error, ps.workers)
	for i := 0; i < ps.workers; i++ {
		w := newParWorker(ps, i+1)
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
					ps.shutdown()
				}
			}()
			w.loop()
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

// parWorker is one search goroutine's private machinery: its own kernel,
// with a private state, arena and Stats. Donated vertices stay valid across
// worker boundaries because no arena is released before the whole search
// terminates (see vertexArena's lifetime rules).
type parWorker struct {
	expander
	ps    *parSolver
	stack []*vertex
	kids  []child
	iter  int
}

// newParWorker builds worker machinery with a private seq namespace: the
// worker index occupies the high bits, so vertex identities (and therefore
// observer event Seqs) stay unique across concurrently emitting workers
// without an atomic counter on the hot path. Each worker would need to
// generate 2^48 vertices to collide. The worker is registered in ps.ws so
// its Stats are summed after the join.
func newParWorker(ps *parSolver, idx int) *parWorker {
	w := &parWorker{expander: newExpander(ps.g, ps.plat, ps.p), ps: ps}
	w.seq = uint64(idx) << 48
	w.pol = w
	ps.ws = append(ps.ws, w)
	return w
}

// limit is the worker's elimination threshold against the shared atomic
// incumbent; events report that shared cost at emission time.
func (w *parWorker) limit() taskgraph.Time   { return PruneLimit(w.current(), w.p.BR) }
func (w *parWorker) current() taskgraph.Time { return taskgraph.Time(w.ps.incCost.Load()) }

// adopt installs a goal (the worker's current state) as the new incumbent
// if it still improves on the shared cost, reporting whether it won the
// adoption race.
func (w *parWorker) adopt(st *sched.State, cost taskgraph.Time) bool {
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
	ps.incMu.Lock()
	// Another goal may have won the race with an even better cost since our
	// CAS; only record the sequence if we still match the best cost.
	if int64(cost) == ps.incCost.Load() {
		ps.inc.seq = st.AppendPlacements(ps.inc.seq[:0])
	}
	ps.incMu.Unlock()
	return true
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

// branch expands v and appends its surviving children to dst, ordered so
// the most promising is LAST, ready for a stack pop. Goals are handled by
// the kernel.
func (w *parWorker) branch(v *vertex, dst []*vertex) []*vertex {
	if testHookExpand != nil {
		testHookExpand(v)
	}
	w.expand(v)
	w.kids = w.generate(v.seq, w.kids[:0])
	n := len(dst)
	dst = w.spawn(v, w.kids, dst)
	orderForPush(dst[n:], w.p.ChildOrder, w.p.Selection)
	return dst
}

const donateThreshold = 64

// loop is the worker main loop: pop locally, refill from or donate to the
// shared pool, park when the system has no work.
func (w *parWorker) loop() {
	ps := w.ps
	for {
		if w.iter&255 == 0 {
			if ps.ctx.Err() != nil {
				ps.canceled.Store(true)
				ps.shutdown()
				return
			}
			//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
			if !ps.deadline.IsZero() && time.Now().After(ps.deadline) {
				ps.timedOut.Store(true)
				ps.shutdown()
				return
			}
		}
		w.iter++

		v := w.take()
		if v == nil {
			return // search complete
		}
		if v.lb >= w.limit() {
			// Stale: pushed before the incumbent improved.
			w.stats.PrunedActive++
			continue
		}
		w.stack = w.branch(v, w.stack)
		w.noteStack()

		// Donate the bottom half of an oversized stack when peers starve.
		if len(w.stack) > donateThreshold {
			ps.poolMu.Lock()
			if ps.idle > 0 && len(ps.pool) < ps.workers {
				half := len(w.stack) / 2
				ps.pool = append(ps.pool, w.stack[:half]...)
				ps.poolHigh = max(ps.poolHigh, len(ps.pool))
				w.stack = append(w.stack[:0], w.stack[half:]...)
				ps.poolCond.Broadcast()
			}
			ps.poolMu.Unlock()
		}
	}
}

// noteStack records the worker's stack high-water mark in its Stats.
func (w *parWorker) noteStack() {
	if len(w.stack) > w.stats.MaxActiveSet {
		w.stats.MaxActiveSet = len(w.stack)
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
			w.noteStack()
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
