package core

import (
	"fmt"
	"time"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// SolveIDA is a third exact search regime beside LIFO and LLB: cost-bounded
// iterative-deepening depth-first search (IDA*-style). It exists because it
// dissolves the trade-off at the heart of the paper's C1/§6 discussion —
// LLB expands a near-minimal vertex set but hoards an enormous active set
// (the SPARCstation thrashing), while LIFO is frugal with memory but can
// over-explore. Iterative deepening runs successive depth-first probes with
// a growing cost threshold:
//
//	threshold ← lower bound of the empty schedule
//	repeat:
//	    depth-first search, pruning every child whose bound EXCEEDS the
//	    threshold (and everything at or above the incumbent allowance);
//	    if a goal with cost <= threshold was found → it is optimal;
//	    otherwise threshold ← the smallest bound that was pruned.
//
// Memory is O(n) — there is no active set at all (the recursion stack and
// the incremental sched.State are the entire working set). The price is
// re-expansion of shallow vertices on every iteration; on plateau-heavy
// lateness landscapes the threshold typically needs very few distinct
// values, so the waste is bounded by the plateau count.
//
// The embedded rules keep their meaning where they apply: B (branching),
// L (bound), ChildOrder (dive order), BR, U, and RB.TimeLimit. The
// selection rule is ignored (the probe IS the selection discipline);
// MAXSZAS/MAXSZDB and the domination rule are rejected (there is no active
// set to bound, and the dominance table would defeat the O(n) memory
// guarantee).
func SolveIDA(g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
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
		return Result{}, fmt.Errorf("core: dominance rule is not supported by iterative deepening")
	}
	if p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0 {
		return Result{}, fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by iterative deepening")
	}
	if p.Observer != nil {
		return Result{}, fmt.Errorf("core: iterative deepening does not support event observers")
	}
	if p.Prefix != nil || p.Link != nil {
		return Result{}, fmt.Errorf("core: iterative deepening does not support Prefix or Link")
	}
	if p.DedupTable != nil {
		return Result{}, fmt.Errorf("core: iterative deepening manages a private dedup table (it is reset per threshold iteration); DedupTable is not supported")
	}

	s := &idaSolver{
		g: g, plat: plat, p: p,
		st:  sched.NewState(g, plat),
		bnd: newBounder(g, p.Bound),
		br:  newBrancher(g, p.Branching),
	}
	if p.Dedup {
		// Dedup trades the headline O(n) memory guarantee for a
		// memory-BOUNDED table: duplicates are pruned within one threshold
		// iteration. The table resets between iterations — every state
		// must be re-expandable under the next, looser threshold.
		s.tt = dedupTable(p)
		s.st.EnableSignature()
	}
	switch p.UpperBound {
	case UpperBoundEDF:
		cost, schedule, err := edf.UpperBound(g, plat)
		if err != nil {
			return Result{}, err
		}
		s.incCost, s.seedInc = cost, schedule
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
		s.incCost, s.seedInc = seed.Lmax(), seed
	}

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		s.deadline = start.Add(p.Resources.TimeLimit)
	}
	s.run()
	fillTableStats(&s.stats, s.tt)
	releaseTable(p, s.tt, false)
	s.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	return s.result()
}

type idaSolver struct {
	g    *taskgraph.Graph
	plat platform.Platform
	p    Params

	st  *sched.State
	bnd *bounder
	br  *brancher
	tt  *transpose.Table // duplicate detection within one threshold iteration

	incCost taskgraph.Time
	incSeq  []sched.Placement
	seedInc *sched.Schedule

	threshold taskgraph.Time
	nextThr   taskgraph.Time

	deadline time.Time
	iter     int
	stats    Stats

	readyBufs [][]taskgraph.TaskID // per-depth scratch (avoids aliasing)
	kidBufs   [][]idaChild         // per-depth child scratch, same aliasing rule
}

// idaChild is one bounded-but-not-yet-explored child of the current probe
// frame: enough to re-place it after ChildOrder sorting.
type idaChild struct {
	id taskgraph.TaskID
	q  platform.Proc
	lb taskgraph.Time
}

func (s *idaSolver) pruneLimit() taskgraph.Time {
	c := s.incCost
	if s.p.BR == 0 || c >= taskgraph.Infinity/2 {
		return c
	}
	abs := c
	if abs < 0 {
		abs = -abs
	}
	return c - taskgraph.Time(s.p.BR*float64(abs))
}

func (s *idaSolver) run() {
	n := s.g.NumTasks()
	s.readyBufs = make([][]taskgraph.TaskID, n+1)
	s.kidBufs = make([][]idaChild, n+1)
	s.threshold = s.bnd.bound(s.st) // bound of the empty schedule

	for {
		if s.threshold >= s.pruneLimit() {
			return // the incumbent is within allowance of every completion
		}
		if s.tt != nil {
			// Entries are only valid within one threshold iteration: a
			// state pruned as a duplicate last iteration must be
			// re-expandable now that the threshold grew.
			s.tt.Reset()
		}
		s.nextThr = taskgraph.Infinity
		s.stats.Expanded++ // the root probe
		if s.probe() {
			return // timed out
		}
		if s.incCost <= s.threshold {
			return // a goal at or under the threshold is optimal
		}
		if s.nextThr >= taskgraph.Infinity {
			return // nothing was pruned by threshold: space exhausted
		}
		s.threshold = s.nextThr
	}
}

// probe runs one depth-first pass under the current threshold. It returns
// true when the time limit fired.
func (s *idaSolver) probe() bool {
	s.iter++
	//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
	if !s.deadline.IsZero() && s.iter&255 == 0 && time.Now().After(s.deadline) {
		s.stats.TimedOut = true
		return true
	}

	depth := s.st.NumPlaced()
	buf := s.readyBufs[depth]
	tasks := s.br.tasks(s.st, buf[:0])
	s.readyBufs[depth] = tasks // keep grown capacity

	n := s.g.NumTasks()
	// Bound all children first (so ChildOrder can sort), then recurse.
	// The probe is the expansion of the current state, so the optimized
	// kernel snapshots here; the bound phase completes before any
	// recursion, so deeper probes re-snapshotting is safe, and every
	// bound is exact — the threshold bookkeeping below sees the same
	// values the reference kernel would produce.
	ref := s.p.ReferenceKernel
	if !ref {
		s.bnd.beginExpand(s.st)
	}
	kids := s.kidBufs[depth][:0]
	for _, id := range tasks {
		for q := 0; q < s.plat.M; q++ {
			if !s.plat.Allows(id, platform.Proc(q)) {
				continue
			}
			s.st.Place(id, platform.Proc(q))
			var lb taskgraph.Time
			if ref {
				lb = s.bnd.bound(s.st)
			} else {
				lb = s.bnd.boundChild(s.st, id)
			}
			s.stats.Generated++

			if s.st.NumPlaced() == n {
				s.stats.Goals++
				if lb < s.incCost {
					s.incCost = lb
					s.incSeq = s.st.AppendPlacements(s.incSeq[:0])
					s.stats.IncumbentUpdates++
				}
				s.st.Undo()
				continue
			}
			switch {
			case lb >= s.pruneLimit():
				s.stats.PrunedChildren++
			case lb > s.threshold:
				// Deferred to the next iteration. Never dedup-pruned: the
				// nextThr bookkeeping must see exactly what the reference
				// search would defer.
				s.stats.PrunedChildren++
				if lb < s.nextThr {
					s.nextThr = lb
				}
			default:
				if s.tt != nil {
					slo, shi := s.st.Signature()
					if s.tt.Probe(slo, shi, int32(s.st.NumPlaced()), int64(lb)) {
						s.stats.DedupPruned++
						s.st.Undo()
						continue
					}
				}
				kids = append(kids, idaChild{id: id, q: platform.Proc(q), lb: lb})
			}
			s.st.Undo()
		}
	}
	s.kidBufs[depth] = kids // keep grown capacity
	if s.p.ChildOrder == ChildrenByLowerBound {
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && kids[j-1].lb > kids[j].lb; j-- {
				kids[j-1], kids[j] = kids[j], kids[j-1]
			}
		}
	}
	for _, k := range kids {
		// Re-check against the (possibly improved) incumbent.
		if k.lb >= s.pruneLimit() {
			s.stats.PrunedChildren++
			continue
		}
		s.st.Place(k.id, k.q)
		if s.tt != nil {
			slo, shi := s.st.Signature()
			s.tt.Store(slo, shi, int32(s.st.NumPlaced()), int64(k.lb))
		}
		s.stats.Expanded++
		timedOut := s.probe()
		s.st.Undo()
		if timedOut {
			return true
		}
	}
	return false
}

func (s *idaSolver) result() (Result, error) {
	res := Result{Cost: taskgraph.Infinity, Params: s.p, Stats: s.stats}
	switch {
	case s.incSeq != nil:
		fresh := sched.NewState(s.g, s.plat)
		if err := fresh.Replay(s.incSeq); err != nil {
			return Result{}, fmt.Errorf("core: IDA incumbent replay: %w", err)
		}
		res.Schedule = fresh.Snapshot()
		res.Cost = fresh.Lmax()
	case s.seedInc != nil:
		res.Schedule = s.seedInc
		res.Cost = s.incCost
	}
	if s.stats.TimedOut {
		res.Reason = TermTimeLimit
	} else {
		res.Reason = TermExhausted
	}
	exhausted := !s.stats.TimedOut
	res.Guarantee = exhausted && s.p.Branching.Exact() && res.Schedule != nil
	res.Optimal = res.Guarantee && s.p.BR == 0
	// The recursion stack is the whole memory story.
	res.Stats.MaxActiveSet = s.g.NumTasks()
	return res, nil
}
