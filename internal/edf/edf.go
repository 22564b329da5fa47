// Package edf implements the greedy Earliest-Deadline-First list scheduler
// of the paper's §4.4. It serves two roles: the polynomial-time reference
// algorithm in every experiment plot, and the source of the initial
// upper-bound solution cost U for the branch-and-bound algorithm (which §6
// credits with a >200% search-performance improvement over a naive positive
// initial bound).
//
// At each of the n scheduling steps the algorithm selects, from all
// currently schedulable (ready) tasks, the one with the closest absolute
// deadline, and places it — using the §4.3 non-preemptive append-only
// operation — on the processor that yields the earliest start time. Ties on
// deadline and on start time are broken toward the smaller task ID and the
// smaller processor index, respectively, keeping the algorithm fully
// deterministic.
package edf

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Result carries the schedule produced by the EDF heuristic together with
// the quantities the experiment harness reports.
type Result struct {
	Schedule *sched.Schedule

	// Lmax is the maximum task lateness of the schedule.
	Lmax taskgraph.Time

	// Steps is the number of scheduling decisions taken (always n); it is
	// the EDF reference line in the paper's "searched vertices" plots.
	Steps int
}

// Schedule runs the EDF heuristic to completion. It returns an error only
// for structurally unusable inputs (cyclic graph, bad platform); a complete
// schedule always exists for a valid DAG because the operation never rejects
// a placement — deadline misses surface as positive lateness, not errors.
// It is the validating, allocating wrapper of ScheduleOn.
func Schedule(g *taskgraph.Graph, p platform.Platform) (Result, error) {
	if err := p.ValidateFor(g.NumTasks()); err != nil {
		return Result{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, err
	}
	st := sched.NewState(g, p)
	if err := ScheduleOn(st); err != nil {
		return Result{}, err
	}
	return Result{Schedule: st.Snapshot(), Lmax: st.Lmax(), Steps: g.NumTasks()}, nil
}

// ScheduleOn resets st and runs the EDF heuristic on it, leaving the
// complete schedule in st: its Lmax is the paper's initial upper-bound
// solution cost U, and a search that seeds its incumbent this way can go
// on to search with the same state instead of building another.
func ScheduleOn(st *sched.State) error {
	g, p := st.G, st.P
	st.Reset()
	n := g.NumTasks()
	ready := make([]taskgraph.TaskID, 0, n)
	for step := 0; step < n; step++ {
		ready = st.ReadyTasks(ready[:0])
		if len(ready) == 0 {
			return fmt.Errorf("edf: no ready task at step %d of %d (graph inconsistent)", step, n)
		}
		// Closest absolute deadline, smallest ID on ties. ReadyTasks yields
		// ascending IDs, so strict < keeps the first (smallest) ID.
		best := ready[0]
		for _, id := range ready[1:] {
			if g.Task(id).AbsDeadline() < g.Task(best).AbsDeadline() {
				best = id
			}
		}
		// Earliest finish over allowed processors, smallest index on ties.
		// On homogeneous platforms every processor finishes EST+c, so this
		// is exactly the paper's earliest-start rule; with speed factors
		// the finish time is the quantity the greedy should minimize, and
		// affinity masks restrict the candidates.
		bestProc := platform.NoProc
		bestFinish := taskgraph.Infinity
		for q := 0; q < p.M; q++ {
			if !p.Allows(best, platform.Proc(q)) {
				continue
			}
			if f := st.EST(best, platform.Proc(q)) + st.ExecOn(best, platform.Proc(q)); f < bestFinish {
				bestFinish, bestProc = f, platform.Proc(q)
			}
		}
		st.Place(best, bestProc)
	}
	return nil
}
