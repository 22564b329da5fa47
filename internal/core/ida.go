package core

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/taskgraph"
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
// MAXSZAS/MAXSZDB, the domination rule and Dedup are rejected (there is no
// active set to bound, and a dominance or transposition table would defeat
// the O(n) memory guarantee; DuplicateFree removes Dedup's duplicates
// without one).
func SolveIDA(g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
	inc, err := prepare(g, plat, p, func() error {
		switch {
		case p.Dominance:
			return fmt.Errorf("core: dominance rule is not supported by iterative deepening")
		case p.Dedup:
			return fmt.Errorf("core: iterative deepening does not support Dedup; use DuplicateFree")
		case p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0:
			return fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by iterative deepening")
		case p.Observer != nil:
			return fmt.Errorf("core: iterative deepening does not support event observers")
		case p.Prefix != nil || p.Link != nil:
			return fmt.Errorf("core: iterative deepening does not support Prefix or Link")
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	s := &idaSolver{expander: newExpander(g, plat, p), inc: inc}
	s.pol = &s.inc

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		s.deadline = start.Add(p.Resources.TimeLimit)
	}
	s.run()
	s.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	s.stats.MaxActiveSet = g.NumTasks() // the recursion stack is the whole memory story
	reason := TermExhausted
	if s.stats.TimedOut {
		reason = TermTimeLimit
	}
	return result(g, plat, p, s.inc, s.stats, reason)
}

type idaSolver struct {
	expander
	inc incumbent

	deadline time.Time
	iter     int

	kidBufs [][]child // per-depth child scratch: a probe's children outlive its recursion
}

func (s *idaSolver) run() {
	s.kidBufs = make([][]child, s.n+1)
	s.threshold = s.bnd.bound(s.st) // bound of the empty schedule

	for {
		if s.threshold >= s.inc.limit() {
			return // the incumbent is within allowance of every completion
		}
		s.nextThr = taskgraph.Infinity
		s.stats.Expanded++ // the root probe
		if s.probe() {
			return // timed out
		}
		if s.inc.cost <= s.threshold {
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

	// Bound all children first (so ChildOrder can sort), then recurse.
	// The probe is the expansion of the current state; the bound phase
	// completes before any recursion, so deeper probes re-snapshotting is
	// safe, and every bound is exact — the threshold bookkeeping sees the
	// same values the reference kernel would produce.
	depth := s.st.NumPlaced()
	kids := s.generate(0, s.kidBufs[depth][:0])
	s.kidBufs[depth] = kids // keep grown capacity
	if s.p.ChildOrder == ChildrenByLowerBound {
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && kids[j-1].lb > kids[j].lb; j-- {
				kids[j-1], kids[j] = kids[j], kids[j-1]
			}
		}
	}
	for i := range kids {
		k := &kids[i]
		// Re-check against the (possibly improved) incumbent.
		if k.lb >= s.inc.limit() {
			s.stats.PrunedChildren++
			continue
		}
		s.st.Place(k.Task, k.Proc)
		s.store(int32(depth)+1, k.lb)
		s.stats.Expanded++
		timedOut := s.probe()
		s.st.Undo()
		if timedOut {
			return true
		}
	}
	return false
}
