package edf

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// SchedulePartitioned runs the EDF heuristic under a fixed task→processor
// assignment: the partitioned-scheduling execution model, where a
// partitioning algorithm (the hetero branch-and-bound, a first-fit
// heuristic, ...) decides WHERE every task runs and per-processor EDF
// decides WHEN. At each step the earliest-absolute-deadline task among all
// ready tasks (smallest ID on ties) is appended to its assigned processor
// via the §4.3 operation — which orders every processor's local queue by
// deadline among its ready tasks while still honouring cross-processor
// precedence and communication. The simulation is fully deterministic, so
// an assignment has exactly one cost: the evaluation function the
// partitioned search optimizes.
func SchedulePartitioned(g *taskgraph.Graph, p platform.Platform, assign []platform.Proc) (Result, error) {
	if err := p.ValidateFor(g.NumTasks()); err != nil {
		return Result{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, err
	}
	n := g.NumTasks()
	if len(assign) != n {
		return Result{}, fmt.Errorf("edf: %d assignments for %d tasks", len(assign), n)
	}
	for id, q := range assign {
		if q < 0 || int(q) >= p.M {
			return Result{}, fmt.Errorf("edf: task %d assigned to invalid processor %d", id, q)
		}
		if !p.Allows(taskgraph.TaskID(id), q) {
			return Result{}, fmt.Errorf("edf: task %d assigned to processor %d excluded by its affinity mask", id, q)
		}
	}
	st := sched.NewState(g, p)
	PartitionedLmax(st, assign, PartitionedOrder(g))
	return Result{Schedule: st.Snapshot(), Lmax: st.Lmax(), Steps: n}, nil
}

// PartitionedOrder returns the sequence in which the partitioned-EDF
// simulation places the tasks of an acyclic graph: at every step, the ready
// task with the earliest absolute deadline, smallest ID on ties. A task is
// ready once all its predecessors are placed, wherever they were placed, so
// the sequence is the same for every assignment: one topological order per
// graph, computed once and handed to PartitionedLmax.
func PartitionedOrder(g *taskgraph.Graph) []taskgraph.TaskID {
	n := g.NumTasks()
	remPreds := make([]int, n)
	ready := make([]taskgraph.TaskID, 0, n)
	for id := 0; id < n; id++ {
		if remPreds[id] = g.InDegree(taskgraph.TaskID(id)); remPreds[id] == 0 {
			ready = append(ready, taskgraph.TaskID(id))
		}
	}
	order := make([]taskgraph.TaskID, 0, n)
	for len(ready) > 0 {
		b := 0
		for i, id := range ready {
			d, bd := g.Task(id).AbsDeadline(), g.Task(ready[b]).AbsDeadline()
			if d < bd || (d == bd && id < ready[b]) {
				b = i
			}
		}
		best := ready[b]
		ready[b] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, best)
		for _, succ := range g.Succs(best) {
			if remPreds[succ]--; remPreds[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	return order
}

// PartitionedLmax runs the partitioned-EDF simulation of a complete
// assignment on a caller-provided state and returns the schedule's maximum
// lateness. order is the graph's PartitionedOrder. A placement sequence
// fully determines the schedule, so the state's trail is kept up to the
// longest prefix whose (task, processor) pairs still match order and
// assign, and only the remaining tasks are placed: successive calls on one
// state, as the partitioned branch-and-bound makes once per complete
// assignment, pay only for the tail where their assignments differ. No
// allocation; SchedulePartitioned is the validating, allocating wrapper.
// The assignment must be complete and affinity-feasible — st.Place panics
// otherwise, which is the search-layer-bug contract of the substrate.
func PartitionedLmax(st *sched.State, assign []platform.Proc, order []taskgraph.TaskID) taskgraph.Time {
	keep := 0
	for keep < st.Depth() && keep < len(order) {
		e := st.TrailEntry(keep)
		if e.Task != order[keep] || e.Proc != assign[e.Task] {
			break
		}
		keep++
	}
	st.TruncateTo(keep)
	for _, id := range order[keep:] {
		st.Place(id, assign[id])
	}
	return st.Lmax()
}
