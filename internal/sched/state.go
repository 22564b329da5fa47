package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// State is the incremental engine for the paper's §4.3 scheduling operation.
// It maintains, for a partial schedule, everything the search layers need in
// O(1)-amortized per query: per-task placements, per-processor frontier
// times, per-task unscheduled-predecessor counts (readiness), and the
// running maximum lateness.
//
// Place appends one task to one processor's queue at its earliest start
// time; Undo reverts the most recent Place. The Place/Undo pair makes State
// suitable both for depth-first searches (recursion with undo) and for
// rebuilding the state of an arbitrary search-tree vertex from its ancestor
// chain (Reset + replay).
//
// A State is not safe for concurrent use; parallel searches give each
// worker its own State.
type State struct {
	G *taskgraph.Graph
	P platform.Platform

	proc     []platform.Proc
	start    []taskgraph.Time
	finish   []taskgraph.Time
	procFree []taskgraph.Time // finish time of the last task on each processor
	remPreds []int32          // unplaced direct predecessors per task
	lmax     taskgraph.Time   // max lateness over placed tasks
	placed   int

	// predMsg[id][k] is the message size on the arc Preds(id)[k] → id,
	// flattened out of the graph's channel map at construction: EST sits on
	// the innermost search loop, and a map lookup per predecessor edge per
	// Place dominates its cost. arrival/exec/absDl likewise flatten the
	// per-task constants out of the Task struct copies.
	predMsg [][]taskgraph.Time
	arrival []taskgraph.Time
	exec    []taskgraph.Time
	absDl   []taskgraph.Time

	// Heterogeneous-platform caches, all nil on homogeneous-universal
	// platforms so the hot path stays byte-for-byte the legacy one.
	// hetExec is the per-(processor, task) execution time flattened
	// q-major (hetExec[q*n+id]); minExec is the per-task minimum over
	// allowed processors (the admissible bound floor); aff mirrors the
	// platform's affinity masks.
	hetExec []taskgraph.Time
	minExec []taskgraph.Time
	aff     []uint64

	// trail records the information needed to revert each Place.
	trail []trailEntry

	// sig is the optional incremental canonical signature (signature.go);
	// sig.on is false until EnableSignature, keeping the default Place/Undo
	// instruction stream untouched.
	sig stateSig
}

type trailEntry struct {
	task         taskgraph.TaskID
	proc         platform.Proc
	prevProcFree taskgraph.Time
	prevLmax     taskgraph.Time
}

// NewState returns a fresh State for the graph and platform. The graph must
// be validated (acyclic) beforehand; NewState panics otherwise, since every
// search layer depends on a consistent readiness relation.
func NewState(g *taskgraph.Graph, p platform.Platform) *State {
	if err := p.ValidateFor(g.NumTasks()); err != nil {
		panic(fmt.Errorf("sched: NewState on invalid platform: %w", err))
	}
	if _, err := g.TopoOrder(); err != nil {
		panic(fmt.Errorf("sched: NewState on invalid graph: %w", err))
	}
	n := g.NumTasks()
	s := &State{
		G: g, P: p,
		proc:     make([]platform.Proc, n),
		start:    make([]taskgraph.Time, n),
		finish:   make([]taskgraph.Time, n),
		procFree: make([]taskgraph.Time, p.M),
		remPreds: make([]int32, n),
		trail:    make([]trailEntry, 0, n),
		predMsg:  make([][]taskgraph.Time, n),
		arrival:  make([]taskgraph.Time, n),
		exec:     make([]taskgraph.Time, n),
		absDl:    make([]taskgraph.Time, n),
	}
	for id := 0; id < n; id++ {
		t := g.Task(taskgraph.TaskID(id))
		s.arrival[id], s.exec[id], s.absDl[id] = t.Arrival(), t.Exec, t.AbsDeadline()
		preds := g.Preds(taskgraph.TaskID(id))
		if len(preds) == 0 {
			continue
		}
		msgs := make([]taskgraph.Time, len(preds))
		for k, pred := range preds {
			msgs[k] = g.MessageSize(pred, taskgraph.TaskID(id))
		}
		s.predMsg[id] = msgs
	}
	if p.Heterogeneous() {
		if !p.Uniform() {
			s.hetExec = make([]taskgraph.Time, p.M*n)
			for q := 0; q < p.M; q++ {
				for id := 0; id < n; id++ {
					s.hetExec[q*n+id] = p.ExecCost(s.exec[id], platform.Proc(q))
				}
			}
		}
		s.minExec = make([]taskgraph.Time, n)
		for id := 0; id < n; id++ {
			s.minExec[id] = p.MinExecCost(taskgraph.TaskID(id), s.exec[id])
		}
		if !p.UniversalAffinity() {
			s.aff = make([]uint64, n)
			for id := 0; id < n; id++ {
				s.aff[id] = p.AllowedMask(taskgraph.TaskID(id))
			}
		}
	}
	s.Reset()
	return s
}

// Hetero reports whether the state runs on a heterogeneous platform
// (non-unit speed factors and/or restricted affinities). Search layers use
// it to route between the optimized homogeneous bound machinery and the
// generalized heterogeneous sweep.
func (s *State) Hetero() bool { return s.hetExec != nil || s.aff != nil }

// Reset returns the state to the empty schedule.
func (s *State) Reset() {
	for i := range s.proc {
		s.proc[i] = platform.NoProc
		s.remPreds[i] = int32(s.G.InDegree(taskgraph.TaskID(i)))
	}
	for q := range s.procFree {
		s.procFree[q] = 0
	}
	s.lmax = taskgraph.MinTime
	s.placed = 0
	s.trail = s.trail[:0]
	if s.sig.on {
		s.recomputeSignature()
	}
}

// NumPlaced returns the number of placed tasks (the vertex level).
func (s *State) NumPlaced() int { return s.placed }

// Placed reports whether the task has been scheduled.
func (s *State) Placed(id taskgraph.TaskID) bool { return s.proc[id] != platform.NoProc }

// Proc returns the processor of a placed task, NoProc otherwise.
func (s *State) Proc(id taskgraph.TaskID) platform.Proc { return s.proc[id] }

// Start returns the start time of a placed task.
func (s *State) Start(id taskgraph.TaskID) taskgraph.Time { return s.start[id] }

// Finish returns the finish time of a placed task.
func (s *State) Finish(id taskgraph.TaskID) taskgraph.Time { return s.finish[id] }

// Lmax returns the maximum lateness over placed tasks (MinTime when empty).
func (s *State) Lmax() taskgraph.Time { return s.lmax }

// ProcFree returns the earliest time processor q can accept a new task: the
// finish time of the last task appended to it.
func (s *State) ProcFree(q platform.Proc) taskgraph.Time { return s.procFree[q] }

// EarliestProcFree returns ℓ_min: the earliest time at which a new task can
// be scheduled on ANY processor. This is the adaptive term of the
// contention-aware lower bound LB1.
func (s *State) EarliestProcFree() taskgraph.Time {
	min := s.procFree[0]
	for _, f := range s.procFree[1:] {
		if f < min {
			min = f
		}
	}
	return min
}

// EarliestProcFreeFor returns ℓ_i: the earliest time at which the task can
// be scheduled on any processor its affinity mask allows. This is the
// per-processor generalization of LB1's ℓ_min term — under universal
// affinity it degenerates to EarliestProcFree.
func (s *State) EarliestProcFreeFor(id taskgraph.TaskID) taskgraph.Time {
	if s.aff == nil {
		return s.EarliestProcFree()
	}
	min := taskgraph.Infinity
	for mask := s.aff[id]; mask != 0; mask &= mask - 1 {
		q := bits.TrailingZeros64(mask)
		if s.procFree[q] < min {
			min = s.procFree[q]
		}
	}
	return min
}

// ExecOn returns the task's execution time on processor q: the nominal
// demand scaled by the processor's speed factor (identical to Exec on a
// homogeneous platform).
func (s *State) ExecOn(id taskgraph.TaskID, q platform.Proc) taskgraph.Time {
	if s.hetExec == nil {
		return s.exec[id]
	}
	return s.hetExec[int(q)*len(s.exec)+int(id)]
}

// MinExec returns the smallest execution time of the task over the
// processors its affinity mask allows — the admissible demand floor used by
// the heterogeneous lower bounds.
func (s *State) MinExec(id taskgraph.TaskID) taskgraph.Time {
	if s.minExec == nil {
		return s.exec[id]
	}
	return s.minExec[id]
}

// PredMsgs returns the message sizes on the task's incoming arcs, aligned
// with G.Preds(id): element k is the size on Preds(id)[k] → id. It is the
// state's own flattened table, read in place of the graph's channel map;
// the caller must not modify it.
func (s *State) PredMsgs(id taskgraph.TaskID) []taskgraph.Time { return s.predMsg[id] }

// Allows reports whether the task may execute on processor q.
func (s *State) Allows(id taskgraph.TaskID, q platform.Proc) bool {
	return s.aff == nil || s.aff[id]>>uint(q)&1 == 1
}

// AllowedMask returns the bitmask of processors the task may execute on.
func (s *State) AllowedMask(id taskgraph.TaskID) uint64 {
	if s.aff == nil {
		if s.P.M >= 64 {
			return ^uint64(0)
		}
		return uint64(1)<<uint(s.P.M) - 1
	}
	return s.aff[id]
}

// Ready reports whether the task is ready: unplaced with every direct
// predecessor placed.
func (s *State) Ready(id taskgraph.TaskID) bool {
	return s.proc[id] == platform.NoProc && s.remPreds[id] == 0
}

// ReadyTasks appends all ready tasks to buf (in ID order) and returns it.
// Pass a reused buffer to avoid allocation in search loops.
func (s *State) ReadyTasks(buf []taskgraph.TaskID) []taskgraph.TaskID {
	for id := 0; id < s.G.NumTasks(); id++ {
		if s.Ready(taskgraph.TaskID(id)) {
			buf = append(buf, taskgraph.TaskID(id))
		}
	}
	return buf
}

// EST returns the earliest start time of a ready task on processor q per
// the §4.3 operation:
//
//	max( a_i,
//	     max over placed preds j of f_j + comm(p_j, q, m_{j,i}),
//	     procFree[q] )
//
// EST does not verify readiness; calling it for a task with unplaced
// predecessors silently ignores them and is a caller bug. The search layers
// only call it on ready tasks.
func (s *State) EST(id taskgraph.TaskID, q platform.Proc) taskgraph.Time {
	est := s.arrival[id]
	for k, pred := range s.G.Preds(id) {
		ready := s.finish[pred] + s.P.CommCost(s.proc[pred], q, s.predMsg[id][k])
		if ready > est {
			est = ready
		}
	}
	if s.procFree[q] > est {
		est = s.procFree[q]
	}
	return est
}

// Place schedules a ready task on processor q at its earliest start time and
// returns the placement. It panics when the task is not ready, q is out of
// range, or the task's affinity mask excludes q — all indicate search-layer
// bugs that must not be masked.
func (s *State) Place(id taskgraph.TaskID, q platform.Proc) Placement {
	if !s.Ready(id) {
		panicNonReady(id, s.Placed(id), s.remPreds[id])
	}
	if q < 0 || int(q) >= s.P.M {
		panicBadProc(id, q)
	}
	if s.aff != nil && s.aff[id]>>uint(q)&1 == 0 {
		panicAffinity(id, q)
	}
	start := s.EST(id, q)
	exec := s.exec[id]
	if s.hetExec != nil {
		exec = s.hetExec[int(q)*len(s.exec)+int(id)]
	}
	finish := start + exec

	s.trail = append(s.trail, trailEntry{
		task: id, proc: q, prevProcFree: s.procFree[q], prevLmax: s.lmax,
	})

	s.proc[id] = q
	s.start[id] = start
	s.finish[id] = finish
	s.procFree[q] = finish
	s.placed++
	for _, succ := range s.G.Succs(id) {
		s.remPreds[succ]--
	}
	if lat := finish - s.absDl[id]; lat > s.lmax {
		s.lmax = lat
	}
	if s.sig.on {
		s.sigPlace(id, q, s.trail[len(s.trail)-1].prevProcFree, finish)
	}
	if debugAsserts {
		s.checkInvariants()
	}
	return Placement{Task: id, Proc: q, Start: start, Finish: finish}
}

// Undo reverts the most recent Place. It panics on an empty trail.
func (s *State) Undo() {
	last := s.trail[len(s.trail)-1]
	s.trail = s.trail[:len(s.trail)-1]

	if s.sig.on {
		s.sigUnplace(last.task, last.proc, last.prevProcFree, s.finish[last.task])
	}
	s.proc[last.task] = platform.NoProc
	s.procFree[last.proc] = last.prevProcFree
	s.lmax = last.prevLmax
	s.placed--
	for _, succ := range s.G.Succs(last.task) {
		s.remPreds[succ]++
	}
	if debugAsserts {
		s.checkInvariants()
	}
}

// Depth returns the number of Places currently on the trail (== NumPlaced
// unless the caller mixed Reset styles).
func (s *State) Depth() int { return len(s.trail) }

// TrailView is the caller-visible projection of one trail entry: which
// task was placed on which processor at that depth. Search layers diff
// the trail against a vertex's ancestor chain to find the fork point of
// an incremental re-materialization — because a placement sequence fully
// determines the schedule state, two prefixes with equal (task, proc)
// pairs are interchangeable.
type TrailView struct {
	Task taskgraph.TaskID
	Proc platform.Proc
}

// TrailEntry returns the i-th placement on the trail (0 = placed first).
// The index must be in [0, Depth()).
func (s *State) TrailEntry(i int) TrailView {
	e := s.trail[i]
	return TrailView{Task: e.task, Proc: e.proc}
}

// TruncateTo undoes the most recent Places until only the first depth
// placements remain on the trail. It panics when depth exceeds the
// current trail depth — truncation can only shrink a schedule.
func (s *State) TruncateTo(depth int) {
	if depth < 0 || depth > len(s.trail) {
		panicBadDepth(depth, len(s.trail))
	}
	for len(s.trail) > depth {
		s.Undo()
	}
}

// The panic formatters live outside the hot operations: fmt boxes its
// arguments into interfaces, and escape analysis charges that boxing to
// the function performing it. Keeping it here leaves Place and
// TruncateTo allocation-free, which bbvet's hotalloc gate enforces.
//
//go:noinline
func panicNonReady(id taskgraph.TaskID, placed bool, rem int32) {
	panic(fmt.Sprintf("sched: Place(%d) on non-ready task (placed=%v, remPreds=%d)", id, placed, rem))
}

//go:noinline
func panicBadProc(id taskgraph.TaskID, q platform.Proc) {
	panic(fmt.Sprintf("sched: Place(%d) on invalid processor %d", id, q))
}

//go:noinline
func panicAffinity(id taskgraph.TaskID, q platform.Proc) {
	panic(fmt.Sprintf("sched: Place(%d) on processor %d excluded by the task's affinity mask", id, q))
}

//go:noinline
func panicBadDepth(depth, trail int) {
	panic(fmt.Sprintf("sched: TruncateTo(%d) outside trail depth %d", depth, trail))
}

// Snapshot copies the current partial schedule into a standalone Schedule.
func (s *State) Snapshot() *Schedule {
	out := NewSchedule(s.G, s.P)
	for id := 0; id < s.G.NumTasks(); id++ {
		if s.proc[id] != platform.NoProc {
			out.Set(taskgraph.TaskID(id), s.proc[id], s.start[id])
		}
	}
	return out
}

// Placements returns the placement sequence in the order it was performed
// (the trail order), suitable for Replay on a fresh state. The result is
// freshly allocated.
func (s *State) Placements() []Placement {
	return s.AppendPlacements(make([]Placement, 0, len(s.trail)))
}

// AppendPlacements appends the placement sequence (trail order) to buf and
// returns it, allocating only when buf lacks capacity. It is the
// allocation-free counterpart of Placements for hot paths that record
// incumbents repeatedly into a reused buffer.
func (s *State) AppendPlacements(buf []Placement) []Placement {
	for _, e := range s.trail {
		buf = append(buf, Placement{Task: e.task, Proc: e.proc, Start: s.start[e.task], Finish: s.finish[e.task]})
	}
	return buf
}

// Replay resets the state and re-applies the given placements in order,
// asserting that each task is placed at exactly the recorded start time.
// This is how branch-and-bound vertices (which store only their own
// placement plus a parent pointer) are materialized, and doubles as an
// internal consistency check: a replay mismatch means the placement sequence
// was produced under a different graph, platform, or operation.
func (s *State) Replay(seq []Placement) error {
	s.Reset()
	for _, pl := range seq {
		got := s.Place(pl.Task, pl.Proc)
		if got.Start != pl.Start || got.Finish != pl.Finish {
			return fmt.Errorf("sched: replay mismatch for task %d on p%d: recorded [%d,%d), operation yields [%d,%d)",
				pl.Task, pl.Proc, pl.Start, pl.Finish, got.Start, got.Finish)
		}
	}
	return nil
}
