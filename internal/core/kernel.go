package core

import (
	"fmt"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// policy is what a search driver supplies to the shared expansion kernel
// (expander): the elimination threshold, the cost its events report, and
// what happens when a goal is reached. Everything else a driver owns is its
// selection rule S — the active set (Solve), the work pool and per-worker
// stacks (SolveParallel), the threshold recursion (SolveIDA), or the BFS
// queue (EnumerateFrontier).
type policy interface {
	// limit is the elimination threshold: a vertex with lb >= limit cannot
	// improve the incumbent by more than the BR allowance and is discarded.
	limit() taskgraph.Time
	// current is the incumbent cost reported in Event.Incumbent.
	current() taskgraph.Time
	// adopt offers the goal st holds, at the given cost, and reports
	// whether it became the new incumbent.
	adopt(st *sched.State, cost taskgraph.Time) bool
}

// incumbent is a driver's best solution so far. It is also the policy of
// the drivers that prune against nothing but their own incumbent
// (SolveIDA, EnumerateFrontier); Solve wraps it with the external bound of
// a Link, and SolveParallel keeps the cost in a shared atomic.
type incumbent struct {
	cost taskgraph.Time
	seq  []sched.Placement // best adopted goal; nil ⇒ the seed (or nothing) stands
	seed *sched.Schedule   // upper-bound seed schedule; nil under UpperBoundFixed
	br   float64
}

func (inc *incumbent) limit() taskgraph.Time   { return PruneLimit(inc.cost, inc.br) }
func (inc *incumbent) current() taskgraph.Time { return inc.cost }

func (inc *incumbent) adopt(st *sched.State, cost taskgraph.Time) bool {
	if cost >= inc.cost {
		return false
	}
	inc.cost = cost
	inc.seq = st.AppendPlacements(inc.seq[:0])
	return true
}

// PruneLimit returns the elimination threshold every driver uses for an
// incumbent cost c under inaccuracy allowance br: vertices whose lower
// bound is >= the limit are pruned. With BR = 0 this is exactly the
// incumbent cost (E_U/DBAS: prune when L(v) >= L(v_u)). Exported for
// coordinators that prune undispatched frontier slices against a broadcast
// incumbent with exactly the solver's rule.
func PruneLimit(c taskgraph.Time, br float64) taskgraph.Time {
	if br == 0 || c >= taskgraph.Infinity/2 {
		return c
	}
	abs := c
	if abs < 0 {
		abs = -abs
	}
	return c - taskgraph.Time(br*float64(abs))
}

// prepare runs the validation every driver shares — Params, the platform
// against the graph, acyclicity, a non-empty graph — then the driver's own
// rejections, and seeds the incumbent with the upper-bound solution cost U
// (Steps 1–2 of Figure 1).
func prepare(g *taskgraph.Graph, plat platform.Platform, p Params, rejects func() error) (incumbent, error) {
	inc := incumbent{br: p.BR}
	if err := p.Validate(); err != nil {
		return inc, err
	}
	if err := plat.ValidateFor(g.NumTasks()); err != nil {
		return inc, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return inc, err
	}
	if g.NumTasks() == 0 {
		return inc, fmt.Errorf("core: empty task graph")
	}
	if err := rejects(); err != nil {
		return inc, err
	}
	switch p.UpperBound {
	case UpperBoundEDF:
		cost, schedule, err := edf.UpperBound(g, plat)
		if err != nil {
			return inc, err
		}
		inc.cost, inc.seed = cost, schedule
	case UpperBoundFixed:
		inc.cost = p.FixedUpperBound
	case UpperBoundSeeded:
		seed := p.SeedSchedule
		if !seed.Complete() || seed.Graph != g {
			return inc, fmt.Errorf("core: seed schedule incomplete or over a different graph")
		}
		if err := seed.Check(); err != nil {
			return inc, fmt.Errorf("core: invalid seed schedule: %w", err)
		}
		inc.cost, inc.seed = seed.Lmax(), seed
	}
	return inc, nil
}

// result assembles a driver's Result. The best adopted goal is replayed on
// a fresh state (the scheduling state may be mid-mutation after a panic)
// and must reproduce its recorded cost; without one the upper-bound seed
// stands. Optimal and Guarantee follow from the termination reason.
func result(g *taskgraph.Graph, plat platform.Platform, p Params, inc incumbent, stats Stats, reason TermReason) (Result, error) {
	res := Result{Cost: taskgraph.Infinity, Reason: reason, Stats: stats, Params: p}
	switch {
	case inc.seq != nil:
		fresh := sched.NewState(g, plat)
		if err := fresh.Replay(inc.seq); err != nil {
			return Result{}, fmt.Errorf("core: incumbent replay: %w", err)
		}
		res.Schedule = fresh.Snapshot()
		res.Cost = fresh.Lmax()
		if res.Cost != inc.cost {
			return Result{}, fmt.Errorf("core: incumbent cost drift: recorded %d, replayed %d", inc.cost, res.Cost)
		}
	case inc.seed != nil:
		res.Schedule, res.Cost = inc.seed, inc.cost
	}
	res.Guarantee = reason == TermExhausted && p.Branching.Exact() && res.Schedule != nil
	res.Optimal = res.Guarantee && p.BR == 0
	if reason == TermGlobalBound && res.Schedule != nil {
		// The incumbent met a certified external lower bound: optimal by
		// that certificate, regardless of how the search was cut short.
		res.Optimal, res.Guarantee = true, true
	}
	if p.Prefix != nil || p.Link != nil {
		// A subtree-restricted or externally coupled run proves nothing
		// global on its own: exhaustion here means "no schedule extending
		// the prefix beats min(local, external)". The coordinator that
		// split the frontier assembles the global proof from every slice.
		res.Optimal, res.Guarantee = false, false
	}
	return res, nil
}

// expander is the expansion kernel every search driver runs: one
// searcher's scheduling state, bounder, branching rule, optional D and
// duplicate-detection tables, vertex arena and Stats. A driver embeds it,
// installs its policy, and calls expand and generate on each vertex its
// selection rule picks. Params.ReferenceKernel is read here and nowhere
// else: in expand (full replay versus incremental materialization) and in
// generate (full-sweep versus cone bound).
type expander struct {
	plat platform.Platform
	p    Params
	pol  policy
	n    int32

	st  *sched.State
	bnd *bounder
	br  *brancher
	dom *domTable        // domination rule D (Params.Dominance); nil when off
	tt  *transpose.Table // duplicate detection (Params.Dedup, Solve only); nil when off

	dup dupFree // duplicate-free generation (Params.DuplicateFree); zero when off

	// threshold is SolveIDA's probe threshold: children bounded above it
	// are deferred to the next iteration, and nextThr records the least
	// such bound. Every other driver leaves it at maxTime.
	threshold taskgraph.Time
	nextThr   taskgraph.Time

	seq   uint64 // generation counter: vertex identities and event Seqs
	stats Stats
	arena vertexArena

	// scratch
	plBuf    []sched.Placement
	readyBuf []taskgraph.TaskID
	chainBuf []*vertex
}

// maxTime is above every bound, so nothing is ever deferred against it.
const maxTime = taskgraph.Time(1<<63 - 1)

// newExpander builds the kernel for one searcher, without a
// transposition table: Solve installs one under Params.Dedup.
func newExpander(g *taskgraph.Graph, plat platform.Platform, p Params) expander {
	e := expander{
		plat: plat, p: p, n: int32(g.NumTasks()),
		st:        sched.NewState(g, plat),
		bnd:       newBounder(g, p.Bound),
		br:        newBrancher(g, p.Branching),
		threshold: maxTime,
	}
	if p.Dominance {
		e.dom = newDomTable(g.NumTasks())
	}
	if p.DuplicateFree {
		e.dup = newDupFree(plat, p.Branching)
	}
	return e
}

// emit reports an event if an observer is installed. Under SolveParallel
// the observer is called concurrently from every worker, with unique Seqs
// but no global order.
func (e *expander) emit(kind EventKind, seq, parent uint64, task taskgraph.TaskID,
	proc platform.Proc, level int32, lb taskgraph.Time) {
	if e.p.Observer == nil {
		return
	}
	e.p.Observer(Event{
		Kind: kind, Seq: seq, Parent: parent, Task: task, Proc: proc,
		Level: level, LB: lb, Incumbent: e.pol.current(),
	})
}

// expand materializes v's partial schedule, counts the expansion, stores
// the state for duplicate detection and emits EventExpand. The reference
// kernel resets and replays the full ancestor chain; the optimized kernel
// diffs the chain against the state's current trail and touches only the
// divergent suffix.
func (e *expander) expand(v *vertex) {
	if e.p.ReferenceKernel {
		e.plBuf = v.placements(e.plBuf[:0])
		if err := e.st.Replay(e.plBuf); err != nil {
			panic(fmt.Errorf("core: vertex replay: %w", err)) // replay of our own placements cannot legally fail
		}
	} else {
		e.chainBuf = materialize(e.st, v, e.chainBuf)
	}
	e.stats.Expanded++
	// Store on expansion: from here on, this state's subtree is fully
	// accounted for (explored, pruned against the incumbent allowance, or —
	// with resource drops — flagged lossy), so any later arrival at the same
	// canonical state is redundant.
	e.store(v.level, v.lb)
	var parent uint64
	if v.parent != nil {
		parent = v.parent.seq
	}
	e.emit(EventExpand, v.seq, parent, v.task, v.proc, v.level, v.lb)
}

// store records the state as expanded at the given depth and bound.
func (e *expander) store(level int32, lb taskgraph.Time) {
	if e.tt != nil {
		lo, hi := e.st.Signature()
		e.tt.Store(lo, hi, level, int64(lb))
	}
}

// duplicate reports whether an expanded state with the same signature,
// depth and an equal-or-better bound subsumes the state. It requires a
// table.
func (e *expander) duplicate(level int32, lb taskgraph.Time) bool {
	lo, hi := e.st.Signature()
	return e.tt.Probe(lo, hi, level, int64(lb))
}

// child is one survivor of generate: its placement, bound and Seq. It holds
// no pointer, so filling the generator's scratch buffer costs the garbage
// collector nothing; spawn attaches the parent.
type child struct {
	sched.Placement
	lb  taskgraph.Time
	seq uint64
}

// generate is Steps 6–7 of Figure 1 for every driver: it branches (B) on
// the state, which must hold the parent's partial schedule, and bounds (L)
// each child. parent is the parent vertex's Seq, reported in events (0
// under SolveIDA, which keeps no tree and emits nothing). Every (ready
// task, allowed processor) child is placed, bounded, counted, and
// classified in a fixed order — goal, elimination E, SolveIDA's threshold
// deferral, domination D, duplicate — and emits the event of its outcome.
// Survivors are appended to kids in generation order.
//
// Under Params.DuplicateFree a child the rules skip is dropped before it
// is placed, like an affinity-infeasible one, and counted only in
// Stats.Skipped. With the knob off, each child costs one more test of a
// flag read once per expansion.
//
// The optimized kernel bounds each child against the parent snapshot by
// the cone factorization — always exact, so events, LLB order, and child
// sorting cannot diverge from the reference kernel.
//
// The prune limit is read from the policy once per expansion and again
// after each adoption. Within one expansion only an adoption moves a
// sequential driver's limit, so the cached value is exact there; a
// parallel worker sees its peers' adoptions at its next expansion.
func (e *expander) generate(parent uint64, kids []child) []child {
	ref := e.p.ReferenceKernel
	if !ref {
		e.bnd.beginExpand(e.st)
	}
	level := int32(e.st.NumPlaced()) + 1
	limit := e.pol.limit()
	dup := e.dup.on()
	var floor sched.Placement
	if dup {
		floor = e.dup.begin(e.st)
	}
	e.readyBuf = e.br.tasks(e.st, e.readyBuf[:0])
	for _, id := range e.readyBuf {
		for q := 0; q < e.plat.M; q++ {
			// Affinity-infeasible children are pruned at generation: they
			// are never created, counted, or emitted. Universal affinity
			// makes this loop the legacy one.
			proc := platform.Proc(q)
			if !e.plat.Allows(id, proc) {
				continue
			}
			if dup && e.dup.skip(e.st, id, proc, floor) {
				e.stats.Skipped++
				continue
			}
			pl := e.st.Place(id, proc)
			var lb taskgraph.Time
			if ref {
				lb = e.bnd.bound(e.st)
			} else {
				lb = e.bnd.boundChild(e.st, id)
			}
			e.stats.Generated++
			e.seq++

			if level == e.n {
				// Goal vertex: never enters AS (§3.1 variant) — it either
				// becomes the incumbent or dies.
				e.stats.Goals++
				e.emit(EventGoal, e.seq, parent, id, proc, level, lb)
				if e.pol.adopt(e.st, lb) {
					e.stats.IncumbentUpdates++
					limit = e.pol.limit()
					e.emit(EventIncumbent, e.seq, parent, id, proc, level, lb)
				}
				e.st.Undo()
				continue
			}
			kind := EventGenerate
			switch {
			case lb >= limit:
				e.stats.PrunedChildren++
				kind = EventPrune
			case lb > e.threshold:
				// Deferred to the next IDA iteration.
				e.stats.PrunedChildren++
				kind = EventPrune
				if lb < e.nextThr {
					e.nextThr = lb
				}
			case e.dom != nil && e.dom.dominated(e.st):
				e.stats.DominancePruned++
				kind = EventDominated
			case e.tt != nil && e.duplicate(level, lb):
				e.stats.DedupPruned++
				kind = EventDuplicate
			default:
				kids = append(kids, child{Placement: pl, lb: lb, seq: e.seq})
			}
			e.emit(kind, e.seq, parent, id, proc, level, lb)
			e.st.Undo()
		}
	}
	return kids
}

// dupFree holds duplicate-free generation's two rules (Params.DuplicateFree)
// for one state being walked down a path: expander.generate asks them
// which children to skip, and checkPrefix asks them whether a Prefix is a
// path of the duplicate-free tree. Both rules read only the state and its
// last placement. class is each processor's interchangeability class, twin
// marks the processors the symmetry rule skips at the current state, seen
// is per-class scratch for marking them, and order is set when start-time
// order applies (BFn).
type dupFree struct {
	class []int
	twin  []bool
	seen  []bool
	order bool
}

func newDupFree(plat platform.Platform, b BranchingRule) dupFree {
	return dupFree{
		class: plat.Classes(),
		twin:  make([]bool, plat.M),
		seen:  make([]bool, plat.M),
		order: b == BranchBFn,
	}
}

// on reports whether the rules are in force (Params.DuplicateFree).
func (d *dupFree) on() bool { return d.class != nil }

// begin prepares one expansion of st. It marks as twins the processors the
// symmetry rule skips: each empty processor with an empty lower-index
// processor of its class. A processor is empty exactly when its ProcFree
// is 0: a task starts no earlier than its phase (>= 0) and runs for at
// least one time unit (taskgraph rejects exec <= 0, and ExecCost keeps a
// positive demand positive), so a processor holding a task is free only
// after time 0. It returns start-time order's floor, the last placement,
// or a floor with Task NoTask where the rule does not apply: at the root,
// and under DF and BF1, whose answers it would change.
func (d *dupFree) begin(st *sched.State) sched.Placement {
	clear(d.seen)
	for q, c := range d.class {
		empty := st.ProcFree(platform.Proc(q)) == 0
		d.twin[q] = empty && d.seen[c]
		d.seen[c] = d.seen[c] || empty
	}
	depth := st.Depth()
	if !d.order || depth == 0 {
		return sched.Placement{Task: taskgraph.NoTask}
	}
	last := st.TrailEntry(depth - 1).Task
	return sched.Placement{Task: last, Start: st.Start(last)}
}

// skip reports whether the rules drop the child of st placing ready task
// id on processor q: q is a twin, or the child's (start, task ID) is
// lexicographically below the floor's. The start is EST, read before any
// Place, so a skipped child costs no Place, Undo or bound.
func (d *dupFree) skip(st *sched.State, id taskgraph.TaskID, q platform.Proc, floor sched.Placement) bool {
	if d.twin[q] {
		return true
	}
	if floor.Task == taskgraph.NoTask {
		return false
	}
	est := st.EST(id, q)
	return est < floor.Start || est == floor.Start && id < floor.Task
}

// spawn moves v's generated children into arena vertices, appending them
// to dst in order.
func (e *expander) spawn(v *vertex, kids []child, dst []*vertex) []*vertex {
	for _, k := range kids {
		n := e.arena.alloc()
		*n = vertex{
			parent: v, lb: k.lb, start: k.Start, finish: k.Finish,
			seq: k.seq, task: k.Task, proc: k.Proc, level: v.level + 1,
		}
		dst = append(dst, n)
	}
	return dst
}
