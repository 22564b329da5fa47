package hetero

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Partitioned scheduling splits the problem the classic way (Lupu et al.):
// a partitioning algorithm decides WHERE every task runs, and a local
// per-processor policy decides WHEN. Here the partitioning algorithm is a
// branch-and-bound over complete task→processor assignments, and the local
// policy is EDF — a full assignment is evaluated by the deterministic
// partitioned-EDF simulation of internal/edf, so each assignment has
// exactly one cost and the search minimizes max lateness over assignments.
//
// The search branches over tasks in topological order, assigning each to
// one of its allowed processors. A partial assignment is bounded by two
// admissible relaxations of every completion's EDF simulation:
//
//   - a critical-path sweep where assigned tasks cost their exact
//     execution time on their processor (plus interprocessor communication
//     on arcs whose BOTH endpoints are assigned, to distinct processors)
//     and unassigned tasks cost their affinity-minimum execution time;
//   - a per-processor load bound: the tasks already assigned to q cannot
//     all finish before minArrival + Σ exec, so some task assigned to q is
//     at least that far past the latest deadline among them.
//
// Both under-estimate every valid completion (the EDF simulation included),
// so pruning against the incumbent cost is exact: an uninterrupted run
// returns the optimal partitioned cost.
//
// The sweep is factored so that an expansion pays for one pass and each
// child for its own in-arcs and the M load terms. Assigned tasks form a
// topological prefix whose predecessors are all assigned, so a prefix
// task's finish estimate never changes once it is assigned: it is kept,
// with the prefix's maximum lateness and every processor's load, earliest
// arrival and latest deadline, as per-depth state. Every unassigned task m
// after the branch task t sees t's finish time f_t only through max-plus
// paths, so its estimate is max(noT_m, f_t + PE_m): noT_m is the estimate
// on paths that avoid t, PE_m the longest min-exec path from t to m. One
// pass over the unassigned suffix reduces it to restA = max(noT_m − D_m)
// and restP = max(PE_m − D_m) over t's descendants, and t's child on q
// folds them with f_t — the same exact split as core's coneFor.

// Options bounds a partitioned solve.
type Options struct {
	// TimeLimit caps the wall-clock search time (0 = none).
	TimeLimit time.Duration
	// NodeLimit caps the number of visited assignment vertices (0 = none):
	// the search stops at the first visit beyond it.
	NodeLimit int64
}

// Stats counts the partitioned search's work.
type Stats struct {
	Visited          int64 // assignment-tree vertices visited
	Pruned           int64 // subtrees cut by the lower bound
	Evaluated        int64 // complete assignments simulated
	IncumbentUpdates int64
	Elapsed          time.Duration
	TimedOut         bool
}

// Result is the outcome of a partitioned solve.
type Result struct {
	// Assign is the best task→processor assignment found.
	Assign []platform.Proc
	// Schedule is its partitioned-EDF schedule.
	Schedule *sched.Schedule
	// Cost is the schedule's maximum lateness.
	Cost taskgraph.Time
	// Lower is the root lower bound on any partitioned cost.
	Lower taskgraph.Time
	// Optimal reports an exhausted search: Cost is the minimum over all
	// affinity-feasible assignments. False after a time/node-limit or
	// cancellation exit, where Cost is the best incumbent found.
	Optimal bool
	Stats   Stats
}

// noPath marks a task the branch task does not reach, and restP when it
// reaches none. It lies far below MinTime, so the only real values it can
// stand in for are path terms that could never raise a bound.
const noPath = taskgraph.Time(math.MinInt64 / 2)

type psolver struct {
	g     *taskgraph.Graph
	p     platform.Platform
	ctx   context.Context
	opt   Options
	topo  []taskgraph.TaskID
	order []taskgraph.TaskID // the partitioned-EDF placement order
	st    *sched.State       // leaf simulations, and the flat cost tables

	cur  []platform.Proc // partial assignment, NoProc = unassigned
	arr  []taskgraph.Time
	dl   []taskgraph.Time
	fhat []taskgraph.Time // finish estimates of the assigned prefix
	noT  []taskgraph.Time // suffix estimates on paths avoiding the branch task
	pe   []taskgraph.Time // longest min-exec path from the branch task, or noPath
	load []taskgraph.Time // per-proc Σ exec of assigned tasks
	minA []taskgraph.Time // per-proc earliest arrival of assigned tasks
	maxD []taskgraph.Time // per-proc latest deadline of assigned tasks

	incBuf   []platform.Proc
	incCost  taskgraph.Time
	deadline time.Time
	stopped  bool
	stats    Stats
}

// SolvePartitioned finds the assignment minimizing the partitioned-EDF
// maximum lateness. The anytime contract matches the global solver's: a
// bounded exit (time limit, node limit, cancellation) still returns the
// best incumbent with Optimal=false; the incumbent is seeded from the
// global EDF heuristic's induced assignment, so a result always exists.
func SolvePartitioned(ctx context.Context, g *taskgraph.Graph, p platform.Platform, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumTasks()
	if n == 0 {
		return Result{}, fmt.Errorf("hetero: empty task graph")
	}
	if err := p.ValidateFor(n); err != nil {
		return Result{}, err
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return Result{}, err
	}

	s := &psolver{
		g: g, p: p, ctx: ctx, opt: opt, topo: topo,
		order:  edf.PartitionedOrder(g),
		st:     sched.NewState(g, p),
		cur:    make([]platform.Proc, n),
		arr:    make([]taskgraph.Time, n),
		dl:     make([]taskgraph.Time, n),
		fhat:   make([]taskgraph.Time, n),
		noT:    make([]taskgraph.Time, n),
		pe:     make([]taskgraph.Time, n),
		load:   make([]taskgraph.Time, p.M),
		minA:   make([]taskgraph.Time, p.M),
		maxD:   make([]taskgraph.Time, p.M),
		incBuf: make([]platform.Proc, n),
	}
	for i := 0; i < n; i++ {
		t := g.Task(taskgraph.TaskID(i))
		s.arr[i], s.dl[i] = t.Arrival(), t.AbsDeadline()
		s.cur[i] = platform.NoProc
	}
	for q := 0; q < p.M; q++ {
		s.minA[q], s.maxD[q] = taskgraph.Infinity, taskgraph.MinTime
	}

	// Incumbent seed: the global EDF heuristic's induced assignment,
	// re-evaluated under the partitioned simulation.
	seed, err := edf.Schedule(g, p)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n; i++ {
		s.incBuf[i] = seed.Schedule.Proc(taskgraph.TaskID(i))
	}
	s.incCost = edf.PartitionedLmax(s.st, s.incBuf, s.order)
	res := Result{Assign: append([]platform.Proc(nil), s.incBuf...)}

	start := time.Now()
	if opt.TimeLimit > 0 {
		s.deadline = start.Add(opt.TimeLimit)
	}
	res.Lower = s.rootBound()
	s.dfs(0, taskgraph.MinTime)
	s.stats.Elapsed = time.Since(start)

	res.Cost = s.incCost
	res.Optimal = !s.stopped
	res.Stats = s.stats
	copy(res.Assign, s.incBuf)
	final, err := edf.SchedulePartitioned(g, p, res.Assign)
	if err != nil {
		return Result{}, fmt.Errorf("hetero: incumbent re-evaluation: %w", err)
	}
	if final.Lmax != res.Cost {
		return Result{}, fmt.Errorf("hetero: incumbent cost drift: search says %d, re-simulation says %d", res.Cost, final.Lmax)
	}
	res.Schedule = final.Schedule
	if res.Lower > res.Cost {
		return Result{}, fmt.Errorf("hetero: root bound %d exceeds optimal cost %d (bound not admissible)", res.Lower, res.Cost)
	}
	return res, nil
}

// dfs assigns the k-th task in topological order to every allowed
// processor, bounding and pruning each child. lat is the assigned prefix's
// maximum lateness.
func (s *psolver) dfs(k int, lat taskgraph.Time) {
	if s.stopped {
		return
	}
	s.stats.Visited++
	if s.opt.NodeLimit > 0 && s.stats.Visited > s.opt.NodeLimit {
		s.stopped, s.stats.TimedOut = true, true
		return
	}
	// The clock and the context are polled at the root and every 1024
	// visits after it.
	if s.stats.Visited&1023 == 1 {
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.stopped, s.stats.TimedOut = true, true
			return
		}
		select {
		case <-s.ctx.Done():
			s.stopped = true
			return
		default:
		}
	}
	if k == len(s.topo) {
		s.stats.Evaluated++
		if cost := edf.PartitionedLmax(s.st, s.cur, s.order); cost < s.incCost {
			s.incCost = cost
			copy(s.incBuf, s.cur)
			s.stats.IncumbentUpdates++
		}
		return
	}
	t := s.topo[k]
	restA, restP := s.sweep(k)
	arr, dl := s.arr[t], s.dl[t]
	for mask := s.st.AllowedMask(t); mask != 0; mask &= mask - 1 {
		q := platform.Proc(bits.TrailingZeros64(mask))
		c := s.st.ExecOn(t, q)
		f := s.start(t, q) + c
		childLat := lat
		if f-dl > childLat {
			childLat = f - dl
		}
		lb := suffixBound(childLat, f, restA, restP)
		load, minA, maxD := s.load[q], s.minA[q], s.maxD[q]
		s.load[q] += c
		if arr < minA {
			s.minA[q] = arr
		}
		if dl > maxD {
			s.maxD[q] = dl
		}
		for r := range s.load {
			if s.load[r] != 0 && s.minA[r]+s.load[r]-s.maxD[r] > lb {
				lb = s.minA[r] + s.load[r] - s.maxD[r]
			}
		}
		if lb >= s.incCost {
			s.stats.Pruned++
		} else {
			s.cur[t], s.fhat[t] = q, f
			s.dfs(k+1, childLat)
			s.cur[t] = platform.NoProc
		}
		s.load[q], s.minA[q], s.maxD[q] = load, minA, maxD
		if s.stopped {
			return
		}
	}
}

// start returns the earliest time the assigned prefix's estimates let
// task t start on processor q: its arrival, or a predecessor's finish
// estimate plus the message cost from that predecessor's processor.
func (s *psolver) start(t taskgraph.TaskID, q platform.Proc) taskgraph.Time {
	ready := s.arr[t]
	msgs := s.st.PredMsgs(t)
	for i, pred := range s.g.Preds(t) {
		if r := s.fhat[pred] + s.p.CommCost(s.cur[pred], q, msgs[i]); r > ready {
			ready = r
		}
	}
	return ready
}

// sweep walks the unassigned suffix after the branch task t = topo[k] once,
// in topological order, and returns the two scalars every child of t
// shares (see the section comment above): restA = max(noT_m − D_m) over
// the suffix and restP = max(PE_m − D_m) over t's descendants in it, noPath
// when t has none. Predecessors in the assigned prefix enter with their
// kept estimates and no message cost, since m is unassigned.
func (s *psolver) sweep(k int) (restA, restP taskgraph.Time) {
	t := s.topo[k]
	restA, restP = taskgraph.MinTime, noPath
	for _, m := range s.topo[k+1:] {
		noT, pe := s.arr[m], noPath
		for _, pred := range s.g.Preds(m) {
			switch {
			case pred == t:
				if pe < 0 {
					pe = 0
				}
			case s.cur[pred] != platform.NoProc:
				if s.fhat[pred] > noT {
					noT = s.fhat[pred]
				}
			default:
				if s.noT[pred] > noT {
					noT = s.noT[pred]
				}
				if s.pe[pred] > pe {
					pe = s.pe[pred]
				}
			}
		}
		c := s.st.MinExec(m)
		noT += c
		if noT-s.dl[m] > restA {
			restA = noT - s.dl[m]
		}
		if pe != noPath {
			pe += c
			if pe-s.dl[m] > restP {
				restP = pe - s.dl[m]
			}
		}
		s.noT[m], s.pe[m] = noT, pe
	}
	return restA, restP
}

// suffixBound raises lb to the largest lateness the sweep's scalars allow
// the unassigned suffix once the branch task finishes at f.
func suffixBound(lb, f, restA, restP taskgraph.Time) taskgraph.Time {
	if restA > lb {
		lb = restA
	}
	if restP != noPath && f+restP > lb {
		lb = f + restP
	}
	return lb
}

// rootBound is the bound of the empty assignment: the first branch task
// has no predecessors and, unassigned, costs its minimum execution time.
func (s *psolver) rootBound() taskgraph.Time {
	t := s.topo[0]
	f := s.arr[t] + s.st.MinExec(t)
	restA, restP := s.sweep(0)
	return suffixBound(f-s.dl[t], f, restA, restP)
}

// BruteLimit bounds the assignment vectors a BruteForcePartitioned call
// may enumerate.
const BruteLimit = 5_000_000

// BruteForcePartitioned enumerates EVERY affinity-feasible assignment,
// evaluates each with the partitioned-EDF simulation, and returns the
// optimum — the ground-truth oracle the partitioned branch-and-bound is
// cross-validated against on small instances.
func BruteForcePartitioned(g *taskgraph.Graph, p platform.Platform) (Result, error) {
	n := g.NumTasks()
	if n == 0 {
		return Result{}, fmt.Errorf("hetero: empty task graph")
	}
	if err := p.ValidateFor(n); err != nil {
		return Result{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, err
	}
	st := sched.NewState(g, p)
	order := edf.PartitionedOrder(g)
	assign := make([]platform.Proc, n)
	res := Result{Cost: taskgraph.Infinity, Optimal: true}

	var overflow bool
	var rec func(id int)
	rec = func(id int) {
		if overflow {
			return
		}
		if id == n {
			res.Stats.Evaluated++
			if res.Stats.Evaluated > BruteLimit {
				overflow = true
				return
			}
			cost := edf.PartitionedLmax(st, assign, order)
			if cost < res.Cost {
				res.Cost = cost
				res.Assign = append(res.Assign[:0], assign...)
			}
			return
		}
		for mask := p.AllowedMask(taskgraph.TaskID(id)); mask != 0; mask &= mask - 1 {
			assign[id] = platform.Proc(bits.TrailingZeros64(mask))
			rec(id + 1)
		}
	}
	rec(0)
	if overflow {
		return Result{}, fmt.Errorf("hetero: assignment space exceeds %d vectors", BruteLimit)
	}
	final, err := edf.SchedulePartitioned(g, p, res.Assign)
	if err != nil {
		return Result{}, err
	}
	res.Schedule, res.Lower = final.Schedule, res.Cost
	return res, nil
}
