package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// Stats records the search-effort quantities the paper reports, plus the
// internals that explain them.
type Stats struct {
	// Generated counts child vertices created and bounded — the paper's
	// primary complexity measure ("number of generated active vertices").
	Generated int64

	// Expanded counts vertices selected and branched.
	Expanded int64

	// Goals counts complete schedules reached.
	Goals int64

	// PrunedChildren counts children discarded immediately by the
	// elimination rule E against the incumbent cost.
	PrunedChildren int64

	// PrunedActive counts active-set vertices eliminated when the incumbent
	// improved (the "AS" half of E_U/DBAS), plus vertices discarded lazily
	// at selection time because the incumbent improved after their insertion.
	PrunedActive int64

	// DominancePruned counts children eliminated by the optional vertex
	// domination rule D.
	DominancePruned int64

	// DedupPruned counts children eliminated by duplicate detection
	// (Params.Dedup): their canonical state signature matched an already
	// expanded state with an equal-or-better bound.
	DedupPruned int64

	// The transposition-table gauges below are a snapshot taken when the
	// run ends; with a shared table (Params.DedupTable, SolveParallel,
	// the fleet) they are cumulative across everything the table served,
	// not per-run. All zero when Dedup is off.
	TableHits       int64 // probes answered by a subsuming entry
	TableEvictions  int64 // live entries displaced by replacement
	TableStale      int64 // dead (epoch-expired) entries touched
	TableBytesInUse int64 // live entry bytes (≤ TableBudget always)
	TableBudget     int64 // configured byte budget

	// Dropped counts vertices lost to the resource bounds MAXSZAS/MAXSZDB.
	// A nonzero value voids the optimality proof.
	Dropped int64

	// MaxActiveSet is the high-water mark of the active-set size.
	MaxActiveSet int

	// IncumbentUpdates counts strict improvements of the best solution.
	IncumbentUpdates int

	// MeanPopAge is the §6 memory-locality proxy: the mean "age" of a
	// selected vertex — how many vertices were generated between its
	// creation and its selection. Under LRU paging, young vertices live on
	// resident pages and old ones have been evicted: LIFO's age stays
	// near the branching factor (it explores what it just created), while
	// LLB-oldest selects the most ancient frontier entries — the access
	// pattern behind the paper's virtual-memory thrashing report. Zero
	// when nothing beyond the root was expanded.
	MeanPopAge float64

	// Elapsed is the wall-clock search time.
	Elapsed time.Duration

	// TimedOut reports whether RB.TimeLimit expired before exhaustion.
	TimedOut bool
}

// Result is the outcome of one Solve run.
type Result struct {
	// Schedule is the best complete schedule found; nil when the search
	// failed to find any complete solution below the initial upper bound
	// (the paper's "best vertex is still the root" failure case).
	Schedule *sched.Schedule

	// Cost is Schedule's maximum task lateness (Infinity when nil).
	Cost taskgraph.Time

	// Optimal reports a PROVEN optimum: the search exhausted the solution
	// space with an exact branching rule, BR = 0, and no resource losses.
	Optimal bool

	// Guarantee reports that Cost − Lopt <= BR·|Cost| is proven (always
	// true when Optimal; true for exhausted BFn searches with BR > 0).
	Guarantee bool

	// Reason records why the run ended (the typed form of the anytime
	// contract: every bounded or canceled exit still returns the best
	// incumbent, and Reason says which kind of exit it was).
	Reason TermReason

	Stats  Stats
	Params Params
}

type solver struct {
	g    *taskgraph.Graph
	plat platform.Platform
	p    Params
	ctx  context.Context

	st  *sched.State
	bnd *bounder
	br  *brancher
	as  activeSet
	dom *domTable
	tt  *transpose.Table // duplicate detection (Params.Dedup); nil when off

	incCost  taskgraph.Time
	incSeq   []sched.Placement // nil ⇒ incumbent is the EDF seed (or nothing)
	edfInc   *sched.Schedule   // EDF-seeded incumbent schedule, if any
	extBound taskgraph.Time    // best external cost seen via Link.Best

	seq           uint64
	lost          bool // optimum potentially lost to resource bounds
	provedByBound bool // terminated early because the incumbent met the global bound
	canceled      bool // terminated early because the context was canceled
	panicked      *PanicError

	popAgeSum float64
	popAgeObs int64
	deadline  time.Time
	stats     Stats

	// scratch
	plBuf    []sched.Placement
	readyBuf []taskgraph.TaskID
	children []*vertex
	chainBuf []*vertex
	arena    vertexArena
}

// Solve runs the parametrized branch-and-bound algorithm of Figure 1 with
// no cancellation (context.Background). See SolveContext for the anytime
// and failure contract.
func Solve(g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
	return SolveContext(context.Background(), g, plat, p)
}

// SolveContext runs the parametrized branch-and-bound algorithm of
// Figure 1 under the given context.
//
// Anytime contract: every bounded exit — RB.TimeLimit expiry, context
// cancellation, or a recovered internal panic — still returns the best
// incumbent found so far (or the EDF seed when nothing better was reached)
// with Result.Reason typed accordingly and Optimal/Guarantee false. A
// canceled run returns a nil error; only invalid inputs and recovered
// panics (*PanicError, Result still populated best-effort) produce one.
func SolveContext(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := plat.ValidateFor(g.NumTasks()); err != nil {
		return Result{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, err
	}
	if g.NumTasks() == 0 {
		return Result{}, fmt.Errorf("core: empty task graph")
	}
	if p.Dominance && g.NumTasks() > 63 {
		return Result{}, fmt.Errorf("core: dominance rule supports at most 63 tasks, graph has %d", g.NumTasks())
	}
	if err := checkPrefix(g, plat, p.Prefix); err != nil {
		return Result{}, err
	}

	s := &solver{
		g: g, plat: plat, p: p, ctx: ctx,
		st:       sched.NewState(g, plat),
		bnd:      newBounder(g, p.Bound),
		br:       newBrancher(g, p.Branching),
		as:       newActiveSet(p.Selection, p.LLBTie),
		extBound: taskgraph.Infinity,
	}
	if p.Dominance {
		s.dom = newDomTable(g.NumTasks())
	}
	if p.Dedup {
		s.tt = dedupTable(p)
		s.st.EnableSignature()
	}

	// Step 1–2: initialize the incumbent ("best vertex") with the
	// upper-bound solution cost U.
	switch p.UpperBound {
	case UpperBoundEDF:
		cost, schedule, err := edf.UpperBound(g, plat)
		if err != nil {
			return Result{}, err
		}
		s.incCost, s.edfInc = cost, schedule
	case UpperBoundFixed:
		s.incCost = p.FixedUpperBound
	case UpperBoundSeeded:
		seed := p.SeedSchedule
		if !seed.Complete() || seed.Graph != g {
			return Result{}, fmt.Errorf("core: seed schedule incomplete or over a different graph")
		}
		if err := seed.Check(); err != nil {
			return Result{}, fmt.Errorf("core: invalid seed schedule: %w", err)
		}
		s.incCost, s.edfInc = seed.Lmax(), seed
	}

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		s.deadline = start.Add(p.Resources.TimeLimit)
	}
	s.runRecovering()
	s.arena.release() // the search tree is dead; drop its slabs wholesale
	fillTableStats(&s.stats, s.tt)
	releaseTable(p, s.tt, s.panicked != nil)
	s.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)

	res, err := s.result()
	if err != nil {
		return Result{}, err
	}
	if s.panicked != nil {
		return res, s.panicked
	}
	return res, nil
}

// runRecovering executes the search, converting a panic anywhere inside it
// into a recorded *PanicError so one poisoned instance cannot kill a fleet
// of solver invocations. The scheduling state may be mid-mutation after a
// panic; result() never touches it (the incumbent is replayed on a fresh
// state), so salvaging the incumbent stays safe.
func (s *solver) runRecovering() {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	s.run()
}

// pruneLimit returns the current elimination threshold: a vertex with
// lb >= pruneLimit cannot improve the incumbent by more than the BR
// allowance and is discarded. With BR = 0 this is exactly the incumbent
// cost (E_U/DBAS: prune when L(v) >= L(v_u)). A linked run prunes against
// the best cost known anywhere — local incumbent or external broadcast.
func (s *solver) pruneLimit() taskgraph.Time {
	c := s.incCost
	if s.extBound < c {
		c = s.extBound
	}
	return pruneLimitFor(c, s.p.BR)
}

// pruneLimitFor applies the BR allowance to an incumbent cost. Shared by
// the sequential solver and the frontier expansion so the two prune
// identically.
func pruneLimitFor(c taskgraph.Time, br float64) taskgraph.Time {
	if br == 0 || c >= taskgraph.Infinity/2 {
		return c
	}
	abs := c
	if abs < 0 {
		abs = -abs
	}
	return c - taskgraph.Time(br*float64(abs))
}

// pollLink refreshes the external bound from the incumbent exchange.
func (s *solver) pollLink() {
	if l := s.p.Link; l != nil && l.Best != nil {
		if b := l.Best(); b < s.extBound {
			s.extBound = b
			s.stats.PrunedActive += int64(s.as.pruneAbove(s.pruneLimit()))
		}
	}
}

func (s *solver) run() {
	// The root vertex carries the paper's cost U conceptually; operationally
	// its bound is MinTime so that neither the elimination rule nor the LLB
	// stop condition can discard the empty schedule itself. A Prefix is
	// installed as a synthetic ancestor chain under the root: materialize
	// replays it like any other chain, goal detection and placement
	// reconstruction see the full schedule depth.
	root := prefixChain(s.p.Prefix)
	s.as.push(root)
	s.pollLink()

	n := int32(s.g.NumTasks())
	for iter := 0; s.as.len() > 0; iter++ {
		if s.p.UseGlobalBound && s.incCost <= s.p.GlobalLowerBound {
			s.provedByBound = true
			return
		}
		if iter&255 == 0 {
			if s.ctx.Err() != nil {
				s.canceled = true
				return
			}
			//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
			if !s.deadline.IsZero() && time.Now().After(s.deadline) {
				s.stats.TimedOut = true
				return
			}
			s.pollLink()
			if s.as.len() == 0 {
				// The tightened external bound emptied the active set.
				return
			}
		}

		// Step 4–5: select a vertex; stop or skip per the selection rule.
		if s.p.Selection == SelectLLB && s.as.peekBound() >= s.pruneLimit() {
			// LLB stop condition: the least lower bound can no longer beat
			// the incumbent — optimality is proven right here.
			return
		}
		v := s.as.pop()
		if v.seq > 0 { // the root has no meaningful age
			s.popAgeSum += float64(s.seq - v.seq)
			s.popAgeObs++
		}
		if v.lb >= s.pruneLimit() {
			// Stale vertex: inserted before the incumbent improved.
			s.stats.PrunedActive++
			continue
		}

		// Materialize the vertex's partial schedule: the reference kernel
		// resets and replays the full ancestor chain, the optimized kernel
		// diffs the chain against the state's current trail and touches
		// only the divergent suffix.
		if s.p.ReferenceKernel {
			s.plBuf = v.placements(s.plBuf[:0])
			if err := s.st.Replay(s.plBuf); err != nil {
				panic(fmt.Errorf("core: vertex replay: %w", err)) // replay of our own placements cannot legally fail
			}
		} else {
			s.chainBuf = materialize(s.st, v, s.chainBuf)
		}
		s.stats.Expanded++
		if s.tt != nil {
			// Store on expansion: from here on, this state's subtree is
			// fully accounted for (explored, pruned against the incumbent
			// allowance, or — with resource drops — flagged lossy), so any
			// later arrival at the same canonical state is redundant.
			lo, hi := s.st.Signature()
			s.tt.Store(lo, hi, v.level, int64(v.lb))
		}
		var parentSeq uint64
		if v.parent != nil {
			parentSeq = v.parent.seq
		}
		s.emit(EventExpand, v.seq, parentSeq, v.task, v.proc, v.level, v.lb)

		// Step 6–7: branch and bound the children. The optimized kernel
		// bounds each child against the parent snapshot by the cone
		// factorization — always exact, so events, LLB order, and child
		// sorting cannot diverge from the reference kernel.
		ref := s.p.ReferenceKernel
		if !ref {
			s.bnd.beginExpand(s.st)
		}
		s.children = s.children[:0]
		s.readyBuf = s.br.tasks(s.st, s.readyBuf[:0])
		for _, id := range s.readyBuf {
			for q := 0; q < s.plat.M; q++ {
				// Affinity-infeasible children are pruned at generation:
				// they are never created, counted, or emitted. Universal
				// affinity makes this loop the legacy one.
				if !s.plat.Allows(id, platform.Proc(q)) {
					continue
				}
				pl := s.st.Place(id, platform.Proc(q))
				var lb taskgraph.Time
				if ref {
					lb = s.bnd.bound(s.st)
				} else {
					lb = s.bnd.boundChild(s.st, id)
				}
				s.stats.Generated++
				s.seq++

				if v.level+1 == n {
					// Goal vertex: never enters AS (§3.1 variant) — it
					// either becomes the incumbent or dies.
					s.stats.Goals++
					s.emit(EventGoal, s.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
					if lb < s.incCost && lb < s.extBound {
						s.adoptIncumbent(lb)
						s.emit(EventIncumbent, s.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
					}
					s.st.Undo()
					continue
				}
				if lb >= s.pruneLimit() {
					s.stats.PrunedChildren++
					s.emit(EventPrune, s.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
					s.st.Undo()
					continue
				}
				if s.dom != nil && s.dom.dominated(s.st) {
					s.stats.DominancePruned++
					s.emit(EventDominated, s.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
					s.st.Undo()
					continue
				}
				if s.tt != nil {
					slo, shi := s.st.Signature()
					if s.tt.Probe(slo, shi, v.level+1, int64(lb)) {
						s.stats.DedupPruned++
						s.emit(EventDuplicate, s.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
						s.st.Undo()
						continue
					}
				}
				var k *vertex
				if ref {
					k = &vertex{}
				} else {
					k = s.arena.alloc()
				}
				*k = vertex{
					parent: v, lb: lb, start: pl.Start, finish: pl.Finish,
					seq: s.seq, task: id, proc: platform.Proc(q), level: v.level + 1,
				}
				s.children = append(s.children, k)
				s.emit(EventGenerate, s.seq, v.seq, id, platform.Proc(q), v.level+1, lb)
				s.st.Undo()
			}
		}

		// Step 8–9: eliminate (MAXSZDB) and move the survivors into AS.
		s.insertChildren()
		if s.as.len() > s.stats.MaxActiveSet {
			s.stats.MaxActiveSet = s.as.len()
		}
	}
}

// adoptIncumbent installs the goal at the current state as the new best
// solution and applies the elimination rule E_U/DBAS to the active set.
// A linked run announces the improvement immediately — adoption is gated
// on beating the external bound too, so every publish is a strict global
// improvement as of the last poll.
func (s *solver) adoptIncumbent(cost taskgraph.Time) {
	s.incCost = cost
	s.incSeq = s.st.AppendPlacements(s.incSeq[:0])
	s.stats.IncumbentUpdates++
	s.stats.PrunedActive += int64(s.as.pruneAbove(s.pruneLimit()))
	if l := s.p.Link; l != nil && l.Publish != nil {
		l.Publish(cost, s.incSeq)
	}
}

// insertChildren applies MAXSZDB, orders the surviving children per
// ChildOrder, pushes them, and enforces MAXSZAS.
func (s *solver) insertChildren() {
	kids := s.children
	if max := s.p.Resources.MaxChildren; max > 0 && len(kids) > max {
		// Keep the most promising children.
		sort.Slice(kids, func(i, j int) bool { return kids[i].lb < kids[j].lb })
		for _, k := range kids[max:] {
			s.emit(EventDrop, k.seq, k.parent.seq, k.task, k.proc, k.level, k.lb)
		}
		s.stats.Dropped += int64(len(kids) - max)
		s.lost = true
		kids = kids[:max]
	}

	switch {
	case s.p.ChildOrder == ChildrenByLowerBound && s.p.Selection == SelectLIFO:
		// Pop order = ascending lb ⇒ push descending.
		sortChildrenByLB(kids, true)
	case s.p.ChildOrder == ChildrenByLowerBound:
		sortChildrenByLB(kids, false)
	case s.p.Selection == SelectLIFO:
		// Pop order = generation order ⇒ push reversed.
		for i, j := 0, len(kids)-1; i < j; i, j = i+1, j-1 {
			kids[i], kids[j] = kids[j], kids[i]
		}
	}

	maxAS := s.p.Resources.MaxActiveSet
	for _, k := range kids {
		s.as.push(k)
		if maxAS > 0 && s.as.len() > maxAS {
			dropped := s.as.dropWorst()
			var dps uint64
			if dropped.parent != nil {
				dps = dropped.parent.seq
			}
			s.emit(EventDrop, dropped.seq, dps, dropped.task, dropped.proc, dropped.level, dropped.lb)
			s.stats.Dropped++
			// Dropping any vertex below the prune limit may lose the optimum.
			if dropped.lb < s.pruneLimit() {
				s.lost = true
			}
		}
	}
}

// sortChildrenByLB is a stable insertion sort on the lower bound
// (descending when desc is set). Child lists are branching-factor sized,
// where insertion sort wins outright — and unlike sort.SliceStable it
// allocates nothing, which keeps the steady-state dive loop allocation
// free. Stability matters: equal-bound children must keep generation
// order, the documented ChildrenByLowerBound tie-break.
func sortChildrenByLB(kids []*vertex, desc bool) {
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0; j-- {
			if desc {
				if kids[j-1].lb >= kids[j].lb {
					break
				}
			} else if kids[j-1].lb <= kids[j].lb {
				break
			}
			kids[j-1], kids[j] = kids[j], kids[j-1]
		}
	}
}

func (s *solver) result() (Result, error) {
	if s.popAgeObs > 0 {
		s.stats.MeanPopAge = s.popAgeSum / float64(s.popAgeObs)
	}
	res := Result{Cost: taskgraph.Infinity, Params: s.p, Stats: s.stats}

	switch {
	case s.incSeq != nil:
		fresh := sched.NewState(s.g, s.plat)
		if err := fresh.Replay(s.incSeq); err != nil {
			return Result{}, fmt.Errorf("core: incumbent replay: %w", err)
		}
		res.Schedule = fresh.Snapshot()
		res.Cost = fresh.Lmax()
		if res.Cost != s.incCost {
			return Result{}, fmt.Errorf("core: incumbent cost drift: recorded %d, replayed %d", s.incCost, res.Cost)
		}
	case s.edfInc != nil:
		res.Schedule = s.edfInc
		res.Cost = s.incCost
	}

	switch {
	case s.panicked != nil:
		res.Reason = TermPanic
	case s.canceled:
		res.Reason = TermCanceled
	case s.stats.TimedOut:
		res.Reason = TermTimeLimit
	case s.provedByBound:
		res.Reason = TermGlobalBound
	case s.lost:
		res.Reason = TermResourceLoss
	default:
		res.Reason = TermExhausted
	}
	exhausted := res.Reason == TermExhausted
	res.Guarantee = exhausted && s.p.Branching.Exact() && res.Schedule != nil
	res.Optimal = res.Guarantee && s.p.BR == 0
	if res.Reason == TermGlobalBound && res.Schedule != nil {
		// The incumbent met a certified external lower bound: optimal by
		// that certificate, regardless of how the search was cut short.
		res.Optimal, res.Guarantee = true, true
	}
	if s.p.Prefix != nil || s.p.Link != nil {
		// A subtree-restricted or externally coupled run proves nothing
		// global on its own: exhaustion here means "no schedule extending
		// the prefix beats min(local, external)". The coordinator that
		// split the frontier assembles the global proof from every slice.
		res.Optimal, res.Guarantee = false, false
	}
	return res, nil
}

// prefixChain builds the search root for a (possibly empty) prefix: the
// base root plus one synthetic ancestor vertex per pinned placement. The
// vertices carry lb = MinTime (they are never re-bounded or pruned) and
// seq = 0 (no meaningful age); materialize and placements() treat them
// exactly like search-generated ancestors.
func prefixChain(prefix []sched.Placement) *vertex {
	root := &vertex{lb: taskgraph.MinTime, task: taskgraph.NoTask, proc: platform.NoProc}
	for _, pl := range prefix {
		root = &vertex{
			parent: root, lb: taskgraph.MinTime,
			start: pl.Start, finish: pl.Finish,
			task: pl.Task, proc: pl.Proc, level: root.level + 1,
		}
	}
	return root
}

// checkPrefix validates a Params.Prefix against the instance by replaying
// it on a throwaway state: range errors surface as Replay errors, and a
// structurally impossible sequence (task not ready, start/finish not
// matching the scheduling operation) surfaces as a recovered panic. A nil
// or empty prefix is trivially valid.
func checkPrefix(g *taskgraph.Graph, plat platform.Platform, prefix []sched.Placement) (err error) {
	if len(prefix) == 0 {
		return nil
	}
	if len(prefix) >= g.NumTasks() {
		return fmt.Errorf("core: prefix pins %d of %d tasks; at least one must remain unscheduled", len(prefix), g.NumTasks())
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid prefix: %v", r)
		}
	}()
	if rerr := sched.NewState(g, plat).Replay(prefix); rerr != nil {
		return fmt.Errorf("core: invalid prefix: %w", rerr)
	}
	return nil
}
