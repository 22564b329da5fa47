package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

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

	// Skipped counts children duplicate-free generation
	// (Params.DuplicateFree) never created: like affinity-infeasible
	// children they are not placed, bounded, counted in Generated or
	// emitted. Zero when the knob is off.
	Skipped int64

	// The transposition-table gauges below are a snapshot taken when a
	// Dedup solve ends; zero otherwise.
	TableHits       int64 // probes answered by a subsuming entry
	TableBytesInUse int64 // live entry bytes (≤ transpose.DefaultBudget always)

	// Dropped counts vertices lost to the resource bounds MAXSZAS/MAXSZDB.
	// A nonzero value voids the optimality proof.
	Dropped int64

	// MaxActiveSet is the high-water mark of the active-set size.
	// SolveParallel reports the sum of its workers' stack high-water marks
	// and its pool's (the seeding frontier included): an upper bound on the
	// vertices live at one instant, since the marks need not coincide.
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

// add accumulates o's search counters into s; SolveParallel sums its
// workers' Stats this way after the join. MaxActiveSet is summed too,
// which bounds the workers' joint high-water mark from above.
func (s *Stats) add(o Stats) {
	s.Generated += o.Generated
	s.Expanded += o.Expanded
	s.Goals += o.Goals
	s.PrunedChildren += o.PrunedChildren
	s.PrunedActive += o.PrunedActive
	s.DominancePruned += o.DominancePruned
	s.Skipped += o.Skipped
	s.Dropped += o.Dropped
	s.MaxActiveSet += o.MaxActiveSet
	s.IncumbentUpdates += o.IncumbentUpdates
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
	expander
	ctx context.Context
	as  activeSet

	inc      incumbent
	extBound taskgraph.Time // best external cost seen via Link.Best

	reason   TermReason // why run returned; TermExhausted unless it stopped early
	lost     bool       // optimum potentially lost to resource bounds
	panicked *PanicError

	popAgeSum float64
	popAgeObs int64
	deadline  time.Time

	// scratch
	kids     []child
	children []*vertex
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
	e, inc, err := prepare(g, plat, p, func() error {
		if p.Dominance && g.NumTasks() > 63 {
			return fmt.Errorf("core: dominance rule supports at most 63 tasks, graph has %d", g.NumTasks())
		}
		return checkPrefix(g, plat, p)
	})
	if err != nil {
		return Result{}, err
	}

	s := &solver{
		expander: e,
		ctx:      ctx,
		as:       newActiveSet(p.Selection, p.LLBTie),
		inc:      inc,
		extBound: taskgraph.Infinity,
	}
	s.pol = s
	if p.Dedup {
		// The run owns the table until its stats are taken; the table an
		// earlier solve released is handed out again (transpose.Acquire).
		s.tt = transpose.Acquire()
		s.st.EnableSignature()
	}

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		s.deadline = start.Add(p.Resources.TimeLimit)
	}
	s.runRecovering()
	s.arena.release() // the search tree is dead; drop its slabs wholesale
	if s.tt != nil {
		ts := s.tt.Snapshot()
		s.stats.TableHits, s.stats.TableBytesInUse = ts.Hits, ts.BytesInUse
		s.tt.Release()
	}
	s.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	if s.popAgeObs > 0 {
		s.stats.MeanPopAge = s.popAgeSum / float64(s.popAgeObs)
	}
	if s.lost && s.reason == TermExhausted {
		s.reason = TermResourceLoss
	}

	res, err := result(g, plat, p, s.inc, s.stats, s.reason)
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
// panic; result never touches it (the incumbent is replayed on a fresh
// state), so salvaging the incumbent stays safe.
func (s *solver) runRecovering() {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = &PanicError{Value: r, Stack: debug.Stack()}
			s.reason = TermPanic
		}
	}()
	s.run()
}

// limit is the solver's elimination threshold. A linked run prunes against
// the best cost known anywhere — local incumbent or external broadcast.
func (s *solver) limit() taskgraph.Time {
	return PruneLimit(min(s.inc.cost, s.extBound), s.p.BR)
}

func (s *solver) current() taskgraph.Time { return s.inc.cost }

// adopt installs the goal at the current state as the new best solution
// when it beats both the incumbent and the external bound, and applies the
// elimination rule E_U/DBAS to the active set. A linked run announces the
// improvement immediately — adoption is gated on beating the external
// bound too, so every publish is a strict global improvement as of the
// last poll.
func (s *solver) adopt(st *sched.State, cost taskgraph.Time) bool {
	if cost >= s.extBound || !s.inc.adopt(st, cost) {
		return false
	}
	s.stats.PrunedActive += int64(s.as.pruneAbove(s.limit()))
	if l := s.p.Link; l != nil && l.Publish != nil {
		l.Publish(cost, s.inc.seq)
	}
	return true
}

// pollLink refreshes the external bound from the incumbent exchange.
func (s *solver) pollLink() {
	if l := s.p.Link; l != nil && l.Best != nil {
		if b := l.Best(); b < s.extBound {
			s.extBound = b
			s.stats.PrunedActive += int64(s.as.pruneAbove(s.limit()))
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

	for iter := 0; s.as.len() > 0; iter++ {
		if s.p.UseGlobalBound && s.inc.cost <= s.p.GlobalLowerBound {
			s.reason = TermGlobalBound
			return
		}
		if iter&255 == 0 {
			if s.ctx.Err() != nil {
				s.reason = TermCanceled
				return
			}
			//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
			if !s.deadline.IsZero() && time.Now().After(s.deadline) {
				s.stats.TimedOut = true
				s.reason = TermTimeLimit
				return
			}
			s.pollLink()
			if s.as.len() == 0 {
				// The tightened external bound emptied the active set.
				return
			}
		}

		// Step 4–5: select a vertex; stop or skip per the selection rule.
		if s.p.Selection == SelectLLB && s.as.peekBound() >= s.limit() {
			// LLB stop condition: the least lower bound can no longer beat
			// the incumbent — optimality is proven right here.
			return
		}
		v := s.as.pop()
		if v.seq > 0 { // the root has no meaningful age
			s.popAgeSum += float64(s.seq - v.seq)
			s.popAgeObs++
		}
		if v.lb >= s.limit() {
			// Stale vertex: inserted before the incumbent improved.
			s.stats.PrunedActive++
			continue
		}

		// Step 6–7: materialize the vertex, then branch and bound its
		// children (expander.generate).
		s.expand(v)
		s.kids = s.generate(v.seq, s.kids[:0])

		// Step 8–9: eliminate (MAXSZDB) and move the survivors into AS.
		s.insertChildren(v)
		if s.as.len() > s.stats.MaxActiveSet {
			s.stats.MaxActiveSet = s.as.len()
		}
	}
}

// insertChildren moves v's generated children into arena vertices, applies
// MAXSZDB, orders the survivors per ChildOrder, pushes them, and enforces
// MAXSZAS.
func (s *solver) insertChildren(v *vertex) {
	s.children = s.spawn(v, s.kids, s.children[:0])
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
	orderForPush(kids, s.p.ChildOrder, s.p.Selection)

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
			if dropped.lb < s.limit() {
				s.lost = true
			}
		}
	}
}

// orderForPush orders children for insertion so that the selection rule
// pops them in ChildOrder: ascending lb, or generation order.
func orderForPush(kids []*vertex, order ChildOrder, sel SelectionRule) {
	switch {
	case order == ChildrenByLowerBound && sel == SelectLIFO:
		// Pop order = ascending lb ⇒ push descending.
		sortChildrenByLB(kids, true)
	case order == ChildrenByLowerBound:
		sortChildrenByLB(kids, false)
	case sel == SelectLIFO:
		// Pop order = generation order ⇒ push reversed.
		for i, j := 0, len(kids)-1; i < j; i, j = i+1, j-1 {
			kids[i], kids[j] = kids[j], kids[i]
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
// matching the scheduling operation) surfaces as a recovered panic. Under
// DuplicateFree each placement must also survive the rules
// expander.generate applies at its parent, so the prefix is a path of the
// duplicate-free tree, as every slice of a frontier built under the knob
// is; the first placement the rules would skip is named. A nil or empty
// prefix is trivially valid.
func checkPrefix(g *taskgraph.Graph, plat platform.Platform, p Params) (err error) {
	prefix := p.Prefix
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
	st := sched.NewState(g, plat)
	if rerr := st.Replay(prefix); rerr != nil {
		return fmt.Errorf("core: invalid prefix: %w", rerr)
	}
	if !p.DuplicateFree {
		return nil
	}
	// The prefix replays, so each placement is a ready task on an allowed
	// processor: walk it again and ask the rules at every parent.
	dup := newDupFree(plat, p.Branching)
	st.Reset()
	for i, pl := range prefix {
		floor := dup.begin(st)
		if dup.skip(st, pl.Task, pl.Proc, floor) {
			why := fmt.Sprintf("(start %d, task %d) is below the previous placement's (start %d, task %d)",
				pl.Start, pl.Task, floor.Start, floor.Task)
			if dup.twin[pl.Proc] {
				why = fmt.Sprintf("p%d is empty and so is a lower-index processor of its class", pl.Proc)
			}
			return fmt.Errorf("core: prefix placement %d (task %d on p%d at %d) is not on the duplicate-free tree: %s",
				i, pl.Task, pl.Proc, pl.Start, why)
		}
		st.Place(pl.Task, pl.Proc)
	}
	return nil
}
