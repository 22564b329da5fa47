package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// bounder computes the lower-bound cost functions L of §3.5 over a partial
// schedule. It owns the scratch storage for the estimated finish times f̂,
// so one bounder serves an entire search without allocating.
//
// Both functions propagate estimated finish times forward through the task
// graph in topological order:
//
//	f̂_i = f_i                                     if τ_i is scheduled
//	f̂_i = max over direct preds τ_j of
//	        max(f̂_j, a_i [, ℓ_min]) + c_i         otherwise
//	      (input tasks: max(a_i [, ℓ_min]) + c_i)
//
// where the ℓ_min term — the earliest instant ANY processor can accept a
// new task under the append-only §4.3 operation — is included only by LB1.
// Communication costs are optimistically zero (the tasks might share a
// processor), keeping both bounds admissible. The vertex bound is then
// L̂ = max{f̂_i − D_i} over ALL tasks, scheduled and not. (Heterogeneous
// platforms take boundHetero's processor-coupled form of the same sweep.)
//
// Two evaluation regimes share that definition:
//
//   - bound is the naive full sweep: O(V+E) per generated child. It is the
//     reference kernel's bounder and the oracle the optimized regime is
//     tested against.
//
//   - beginExpand + boundChild is the incremental cone regime, built on an
//     exact algebraic split of the recurrence above:
//
//     f̂_i = max( base_i, ℓ_min + chain_i )
//
//     base_i  = c_i + max(a_i, finishes of placed preds, base of unplaced)
//     chain_i = c_i + max(0, chain over unplaced preds)
//
//     (placed tasks carry base = f_i, chain = −∞). base is the placement-
//     driven term and chain the longest unscheduled execution chain ending
//     at τ_i; BOTH are independent of ℓ_min, and both can only change
//     inside the dependency cone of a newly placed task — a task with no
//     path from the placement has no term of either recurrence that moved.
//     ℓ_min, the one global coupling of LB1, is re-applied from outside at
//     evaluation time, so a placement that shifts ℓ_min costs nothing.
//
//     beginExpand maintains (base, chain) snapshots per trail depth in a
//     level stack, diffing the state's trail against the previously
//     snapshotted one and committing only the cone of each newly placed
//     task — O(copy + cone) per level instead of a full sweep, for dives
//     AND backtracks.
//
//     boundChild splits once more. Within the cone of a branch task τ_t,
//     every max-plus propagation path either starts at τ_t (the recurrence
//     cuts at placed tasks, so nothing passes THROUGH it) or avoids it
//     entirely, which factors each cone member's base as
//
//     base_m = max( noT_m, f_t + PE_m )
//
//     with noT_m the propagation avoiding τ_t and PE_m the longest live
//     (all-unscheduled) execution path τ_t → τ_m — and neither noT, PE,
//     nor chain depends on WHERE τ_t was placed. One cone walk per branch
//     task therefore collapses into three scalars (the maxima of
//     noT − D, PE − D, chain − D over the cone), and each of the M
//     per-processor children folds them with its own f_t and ℓ_min in
//     O(1). Every bound is exact — the incremental kernel never
//     approximates, so LLB selection, child ordering, and observer event
//     streams stay bit-identical to the reference kernel.
type bounder struct {
	g    *taskgraph.Graph
	topo []taskgraph.TaskID
	fhat []taskgraph.Time
	mode BoundFunc

	// arr/exec/dl flatten Arrival/Exec/AbsDeadline out of the 56-byte Task
	// struct (which drags a string header through every copy): the sweeps
	// below read them once per task per propagation.
	arr  []taskgraph.Time
	exec []taskgraph.Time
	dl   []taskgraph.Time

	// boundHetero's tables, flattened out of the state by newBounder on
	// heterogeneous platforms and nil otherwise. Under LB1, hetExec[i*M+q]
	// is task i's execution time on processor q, task-major so one task's
	// M entries are adjacent, and Infinity where its affinity mask bars q;
	// free holds the processors' ProcFree, read once per bound. Under LB0,
	// minExec is each task's least execution time over its allowed
	// processors.
	hetExec []taskgraph.Time
	free    []taskgraph.Time
	minExec []taskgraph.Time

	// Cone machinery, all lazily sized so the reference kernel and
	// heterogeneous platforms never pay.
	// baseLv[k]/chainLv[k] snapshot the decomposition for the trail prefix
	// of length k (level 0 = empty schedule, computed analytically);
	// snapTrail/pos record which trail the levels describe and validDepth
	// how many of them are current. Graphs beyond maxSnapLevels tasks skip
	// the stack and re-sweep one snapshot per expansion. restBase/restChain
	// cache, per branch task and expansion epoch, the bound contribution of
	// every unscheduled task OUTSIDE that task's cone, and coneA/coneP/coneC
	// the three scalars of the cone factorization — both shared by the
	// task's per-processor children. walk* are the cone-walk scratch,
	// validity-stamped so nothing is ever cleared.
	desc            *descSets
	baseLv, chainLv [][]taskgraph.Time
	snapTrail       []sched.TrailView
	pos             []int32 // task → index in snapTrail, -1 when absent
	validDepth      int
	snapBase        []taskgraph.Time
	snapChain       []taskgraph.Time

	epoch     uint64
	restBase  []taskgraph.Time
	restChain []taskgraph.Time
	restEpoch []uint64
	restMark  []uint64
	restStamp uint64
	coneA     []taskgraph.Time
	coneP     []taskgraph.Time
	coneC     []taskgraph.Time
	coneEpoch []uint64
	walkNoT   []taskgraph.Time
	walkPE    []taskgraph.Time
	walkChain []taskgraph.Time
	walkMark  []uint64
	walkStamp uint64
}

// maxSnapLevels bounds the graphs that get a full per-depth snapshot stack
// (2·n·(n+1) words — 260 KiB at the cutoff). Larger graphs fall back to a
// single snapshot refreshed by one sweep per expansion.
const maxSnapLevels = 128

// newBounder builds the bounder of a search over st's graph and platform.
func newBounder(st *sched.State, mode BoundFunc) *bounder {
	g := st.G
	topo, err := g.TopoOrder()
	if err != nil {
		panic(fmt.Errorf("core: bounder on unvalidated graph: %w", err)) // Solve validated the graph already
	}
	n := g.NumTasks()
	arr := make([]taskgraph.Time, n)
	exec := make([]taskgraph.Time, n)
	dl := make([]taskgraph.Time, n)
	for i := 0; i < n; i++ {
		t := g.Task(taskgraph.TaskID(i))
		arr[i], exec[i], dl[i] = t.Arrival(), t.Exec, t.AbsDeadline()
	}
	b := &bounder{
		g: g, topo: topo, mode: mode,
		fhat:       make([]taskgraph.Time, n),
		arr:        arr,
		exec:       exec,
		dl:         dl,
		validDepth: -1,
	}
	if st.Hetero() {
		b.initHetero(st)
	}
	return b
}

// initHetero flattens the tables boundHetero reads under the bounder's
// mode out of st.
func (b *bounder) initHetero(st *sched.State) {
	n := len(b.arr)
	switch b.mode {
	case BoundLB0:
		b.minExec = make([]taskgraph.Time, n)
		for i := range b.minExec {
			b.minExec[i] = st.MinExec(taskgraph.TaskID(i))
		}
	case BoundLB1:
		m := st.P.M
		b.hetExec = make([]taskgraph.Time, n*m)
		b.free = make([]taskgraph.Time, m)
		for i := 0; i < n; i++ {
			id := taskgraph.TaskID(i)
			for q := 0; q < m; q++ {
				c := taskgraph.Infinity // never the minimum: some processor is allowed
				if st.Allows(id, platform.Proc(q)) {
					c = st.ExecOn(id, platform.Proc(q))
				}
				b.hetExec[i*m+q] = c
			}
		}
	}
}

// bound returns the lower-bound cost of the partial schedule in st.
func (b *bounder) bound(st *sched.State) taskgraph.Time {
	// The lateness of the scheduled portion is exact and tracked by the
	// state; BoundNone stops there (pure incumbent-cost pruning, for
	// ablations).
	l := st.Lmax()
	if b.mode == BoundNone {
		return l
	}
	if st.Hetero() {
		return b.boundHetero(st, l)
	}

	var lmin taskgraph.Time
	if b.mode == BoundLB1 {
		lmin = st.EarliestProcFree()
	}

	for _, id := range b.topo {
		if st.Placed(id) {
			b.fhat[id] = st.Finish(id)
			continue
		}
		floor := b.arr[id]
		if b.mode == BoundLB1 && lmin > floor {
			floor = lmin
		}
		c := b.exec[id]
		est := floor + c
		for _, pred := range b.g.Preds(id) {
			ready := b.fhat[pred]
			if ready < floor {
				ready = floor
			}
			if ready+c > est {
				est = ready + c
			}
		}
		b.fhat[id] = est
		if lat := est - b.dl[id]; lat > l {
			l = lat
		}
	}
	return l
}

// boundHetero is the heterogeneous-platform form of the sweep. Under LB1
// each unscheduled task is coupled to the processors it may run on:
//
//	f̂_i = min over allowed q of ( max(ready_i, ProcFree(q)) + ExecOn(i, q) )
//	ready_i = max(a_i, f̂ of its direct predecessors)
//
// It is admissible: ProcFree only grows under the append-only operation and
// messages cost ≥ 0, so wherever a completion places τ_i, on some allowed
// q, it starts no earlier than max(ready_i, ProcFree(q)) and runs for
// ExecOn(i, q). It is never looser than pairing the earliest-free allowed
// processor with the fastest allowed one (each term of the min is at least
// that), and on identical processors, where every ExecOn is c_i, it is
// exactly LB1's max(ready_i, ℓ_min) + c_i. Under LB0 the task's demand
// relaxes to its minimum over allowed processors: ready_i + MinExec(i).
// With unit speeds and universal affinities this function is never reached
// (State.Hetero() is false) and the homogeneous sweep runs untouched.
func (b *bounder) boundHetero(st *sched.State, l taskgraph.Time) taskgraph.Time {
	lb1 := b.mode == BoundLB1
	if lb1 {
		for q := range b.free {
			b.free[q] = st.ProcFree(platform.Proc(q))
		}
	}
	m := len(b.free)
	for _, id := range b.topo {
		if st.Placed(id) {
			b.fhat[id] = st.Finish(id)
			continue
		}
		ready := b.arr[id]
		for _, pred := range b.g.Preds(id) {
			if f := b.fhat[pred]; f > ready {
				ready = f
			}
		}
		var est taskgraph.Time
		if lb1 {
			row := b.hetExec[int(id)*m : int(id)*m+m]
			free := b.free[:len(row)]
			est = taskgraph.Infinity
			for q, c := range row {
				est = min(est, max(ready, free[q])+c)
			}
		} else {
			est = ready + b.minExec[id]
		}
		b.fhat[id] = est
		if lat := est - b.dl[id]; lat > l {
			l = lat
		}
	}
	return l
}

// beginExpand brings the (base, chain) parent snapshot up to date with the
// materialized state and opens a new expansion epoch for the rest caches.
// It must be called once per expansion before any boundChild call of that
// expansion.
func (b *bounder) beginExpand(st *sched.State) {
	b.epoch++
	if b.mode == BoundNone || st.Hetero() {
		// Heterogeneous platforms skip the cone machinery entirely:
		// boundChild falls back to the generalized full sweep, so no
		// snapshots are ever needed.
		return
	}
	if b.desc == nil {
		b.initCone()
	}
	n := b.g.NumTasks()
	if n > maxSnapLevels {
		// No level stack: one decomposition sweep per expansion.
		b.snapBase, b.snapChain = b.sweepInto(st, b.snapBase, b.snapChain)
		return
	}
	if b.validDepth < 0 {
		b.sweepInto(nil, b.baseLv[0], b.chainLv[0]) // empty schedule, analytically
		b.validDepth = 0
	}

	// Diff the state's trail against the snapshotted one: levels up to the
	// common prefix are still exact, everything deeper is recommitted cone
	// by cone.
	depth := st.Depth()
	common, limit := 0, b.validDepth
	if depth < limit {
		limit = depth
	}
	for common < limit {
		if e := st.TrailEntry(common); e != b.snapTrail[common] {
			break
		}
		common++
	}
	for _, e := range b.snapTrail[common:] {
		b.pos[e.Task] = -1
	}
	b.snapTrail = b.snapTrail[:common]
	for k := common; k < depth; k++ {
		e := st.TrailEntry(k)
		b.snapTrail = append(b.snapTrail, e)
		b.pos[e.Task] = int32(k)
		b.commitLevel(st, k, e.Task)
	}
	b.validDepth = depth
	b.snapBase, b.snapChain = b.baseLv[depth], b.chainLv[depth]
}

// initCone sizes the cone machinery on the first homogeneous expansion, so
// the reference kernel and heterogeneous platforms never pay for it.
func (b *bounder) initCone() {
	n := b.g.NumTasks()
	b.desc = newDescSets(b.g, b.topo)
	b.pos = make([]int32, n)
	for i := range b.pos {
		b.pos[i] = -1
	}
	b.snapTrail = make([]sched.TrailView, 0, n)
	b.restBase = make([]taskgraph.Time, n)
	b.restChain = make([]taskgraph.Time, n)
	b.restEpoch = make([]uint64, n)
	b.restMark = make([]uint64, n)
	b.coneA = make([]taskgraph.Time, n)
	b.coneP = make([]taskgraph.Time, n)
	b.coneC = make([]taskgraph.Time, n)
	b.coneEpoch = make([]uint64, n)
	b.walkNoT = make([]taskgraph.Time, n)
	b.walkPE = make([]taskgraph.Time, n)
	b.walkChain = make([]taskgraph.Time, n)
	b.walkMark = make([]uint64, n)
	if n > maxSnapLevels {
		return
	}
	flat := make([]taskgraph.Time, 2*(n+1)*n)
	b.baseLv = make([][]taskgraph.Time, n+1)
	b.chainLv = make([][]taskgraph.Time, n+1)
	for k := 0; k <= n; k++ {
		b.baseLv[k] = flat[2*k*n : (2*k+1)*n : (2*k+1)*n]
		b.chainLv[k] = flat[(2*k+1)*n : (2*k+2)*n : (2*k+2)*n]
	}
}

// commitLevel derives level k+1 from level k: copy, then place the trail's
// k-th task and re-propagate its cone in place. desc lists are in
// topological order, so a cone member's in-cone predecessors are always
// committed before it reads them.
func (b *bounder) commitLevel(st *sched.State, k int, placed taskgraph.TaskID) {
	src, dst := b.baseLv[k], b.baseLv[k+1]
	copy(dst, src)
	srcC, dstC := b.chainLv[k], b.chainLv[k+1]
	copy(dstC, srcC)

	dst[placed] = st.Finish(placed) // placements are append-only: still exact
	dstC[placed] = taskgraph.MinTime
	lvl := int32(k + 1)
	for _, m := range b.desc.list(placed) {
		if p := b.pos[m]; p >= 0 && p < lvl {
			continue // already scheduled at this level; committed earlier
		}
		base := b.arr[m]
		chain := taskgraph.Time(0)
		for _, pred := range b.g.Preds(m) {
			if dst[pred] > base {
				base = dst[pred]
			}
			if dstC[pred] > chain {
				chain = dstC[pred]
			}
		}
		dst[m] = base + b.exec[m]
		dstC[m] = chain + b.exec[m]
	}
}

// sweepInto computes the (base, chain) decomposition of the full graph in
// one topological sweep. A nil state means the empty schedule — the level-0
// snapshot needs no State at all. Slices are grown on first use and
// returned.
func (b *bounder) sweepInto(st *sched.State, base, chain []taskgraph.Time) ([]taskgraph.Time, []taskgraph.Time) {
	n := b.g.NumTasks()
	if base == nil {
		base = make([]taskgraph.Time, n)
		chain = make([]taskgraph.Time, n)
	}
	for _, id := range b.topo {
		if st != nil && st.Placed(id) {
			base[id] = st.Finish(id)
			chain[id] = taskgraph.MinTime
			continue
		}
		bs := b.arr[id]
		ch := taskgraph.Time(0)
		for _, pred := range b.g.Preds(id) {
			if base[pred] > bs {
				bs = base[pred]
			}
			if chain[pred] > ch {
				ch = chain[pred]
			}
		}
		base[id] = bs + b.exec[id]
		chain[id] = ch + b.exec[id]
	}
	return base, chain
}

// boundChild returns the lower-bound cost of st, which must be the
// beginExpand state plus exactly one Place of task placed. The result is
// always exact — bit-identical to bound(st).
func (b *bounder) boundChild(st *sched.State, placed taskgraph.TaskID) taskgraph.Time {
	l := st.Lmax()
	if b.mode == BoundNone {
		return l
	}
	if st.Hetero() {
		return b.boundHetero(st, l)
	}
	lb1 := b.mode == BoundLB1
	var lmin taskgraph.Time
	if lb1 {
		lmin = st.EarliestProcFree()
	}

	// Contribution of every unscheduled task outside the placed task's
	// cone, straight from the parent snapshot (the placement cannot have
	// moved it; ℓ_min is folded in from outside, after the fact).
	restB, restC := b.restFor(st, placed)
	if restB > l {
		l = restB
	}
	if lb1 && lmin+restC > l {
		l = lmin + restC
	}

	// Contribution of the cone, factored into three placement-independent
	// scalars and folded with this child's finish time and ℓ_min.
	coneA, coneP, coneC := b.coneFor(st, placed)
	if coneA > l {
		l = coneA
	}
	if fp := st.Finish(placed) + coneP; fp > l {
		l = fp
	}
	if lb1 && lmin+coneC > l {
		l = lmin + coneC
	}
	return l
}

// coneFor walks the unscheduled descendants of the placed task once, in
// topological order, and reduces the cone's bound contribution to three
// scalars shared by all the task's per-processor children:
//
//	coneA = max over cone of (noT_m − D_m)    noT: propagation avoiding τ_t
//	coneP = max over cone of (PE_m − D_m)     PE: live execution path τ_t→τ_m
//	coneC = max over cone of (chain_m − D_m)  chain: unscheduled chain into τ_m
//
// The child bound folds them as max(coneA, f_t + coneP, ℓ_min + coneC).
// Predecessor lookups resolve to this walk's values for cone members
// already visited and to the parent snapshot for everything else
// (scheduled tasks appear there at their exact finish times, with
// chain = −∞). The pair of caches is keyed by (task, expansion epoch),
// exactly like restFor's.
func (b *bounder) coneFor(st *sched.State, placed taskgraph.TaskID) (taskgraph.Time, taskgraph.Time, taskgraph.Time) {
	if b.coneEpoch[placed] == b.epoch {
		return b.coneA[placed], b.coneP[placed], b.coneC[placed]
	}
	A, P, C := taskgraph.MinTime, taskgraph.MinTime, taskgraph.MinTime
	b.walkStamp++
	for _, m := range b.desc.list(placed) {
		if st.Placed(m) {
			continue
		}
		noT := b.arr[m]
		pe := taskgraph.MinTime
		chain := taskgraph.Time(0)
		for _, pred := range b.g.Preds(m) {
			switch {
			case pred == placed:
				if pe < 0 {
					pe = 0
				}
			case b.walkMark[pred] == b.walkStamp:
				if v := b.walkNoT[pred]; v > noT {
					noT = v
				}
				if v := b.walkPE[pred]; v > pe {
					pe = v
				}
				if v := b.walkChain[pred]; v > chain {
					chain = v
				}
			default:
				if v := b.snapBase[pred]; v > noT {
					noT = v
				}
				if v := b.snapChain[pred]; v > chain {
					chain = v
				}
			}
		}
		e := b.exec[m]
		noT += e
		pe += e // unreachable stays ≈ −∞: execution times are tiny next to it
		chain += e
		b.walkNoT[m], b.walkPE[m], b.walkChain[m] = noT, pe, chain
		b.walkMark[m] = b.walkStamp
		d := b.dl[m]
		if v := noT - d; v > A {
			A = v
		}
		if v := pe - d; v > P {
			P = v
		}
		if v := chain - d; v > C {
			C = v
		}
	}
	b.coneA[placed], b.coneP[placed], b.coneC[placed] = A, P, C
	b.coneEpoch[placed] = b.epoch
	return A, P, C
}

// restFor returns the cone-independent part of the child bound:
// max{base_i − D_i} and max{chain_i − D_i} over every unscheduled task i
// outside the placed task's cone. The pair is cached per (task, expansion
// epoch): the M per-processor children of one branch task share it.
func (b *bounder) restFor(st *sched.State, placed taskgraph.TaskID) (taskgraph.Time, taskgraph.Time) {
	if b.restEpoch[placed] == b.epoch {
		return b.restBase[placed], b.restChain[placed]
	}
	restB, restC := taskgraph.MinTime, taskgraph.MinTime
	n := b.g.NumTasks()
	if b.desc.bits != nil {
		mask := b.desc.bits[placed]
		for i := 0; i < n; i++ {
			id := taskgraph.TaskID(i)
			if st.Placed(id) || mask&(1<<uint(i)) != 0 {
				continue
			}
			d := b.dl[id]
			if lat := b.snapBase[id] - d; lat > restB {
				restB = lat
			}
			if lat := b.snapChain[id] - d; lat > restC {
				restC = lat
			}
		}
	} else {
		b.restStamp++
		for _, d := range b.desc.lists[placed] {
			b.restMark[d] = b.restStamp
		}
		for i := 0; i < n; i++ {
			id := taskgraph.TaskID(i)
			if st.Placed(id) || b.restMark[id] == b.restStamp {
				continue
			}
			d := b.dl[id]
			if lat := b.snapBase[id] - d; lat > restB {
				restB = lat
			}
			if lat := b.snapChain[id] - d; lat > restC {
				restC = lat
			}
		}
	}
	b.restBase[placed], b.restChain[placed] = restB, restC
	b.restEpoch[placed] = b.epoch
	return restB, restC
}

// descSets precomputes, for every task, the set of its strict descendants
// — the dependency cone a placement can influence. Graphs of at most 64
// tasks carry a single-word bitmask per task (the restFor membership
// test); larger graphs fall back to the per-task slices alone. Both forms
// keep the descendants as a topologically ordered list, which is what the
// cone walk iterates.
type descSets struct {
	bits  []uint64
	lists [][]taskgraph.TaskID
}

func (d *descSets) list(id taskgraph.TaskID) []taskgraph.TaskID { return d.lists[id] }

func newDescSets(g *taskgraph.Graph, topo []taskgraph.TaskID) *descSets {
	n := g.NumTasks()
	d := &descSets{lists: make([][]taskgraph.TaskID, n)}
	if n <= 64 {
		d.bits = make([]uint64, n)
		for i := len(topo) - 1; i >= 0; i-- {
			id := topo[i]
			var m uint64
			for _, s := range g.Succs(id) {
				m |= d.bits[s] | 1<<uint(s)
			}
			d.bits[id] = m
			if m == 0 {
				continue
			}
			var list []taskgraph.TaskID
			for _, t := range topo {
				if m&(1<<uint(t)) != 0 {
					list = append(list, t)
				}
			}
			d.lists[id] = list
		}
		return d
	}
	mark := make([]bool, n)
	queue := make([]taskgraph.TaskID, 0, n)
	for i := 0; i < n; i++ {
		id := taskgraph.TaskID(i)
		for j := range mark {
			mark[j] = false
		}
		queue = append(queue[:0], g.Succs(id)...)
		for _, s := range g.Succs(id) {
			mark[s] = true
		}
		for h := 0; h < len(queue); h++ {
			for _, s := range g.Succs(queue[h]) {
				if !mark[s] {
					mark[s] = true
					queue = append(queue, s)
				}
			}
		}
		if len(queue) == 0 {
			continue
		}
		list := make([]taskgraph.TaskID, 0, len(queue))
		for _, t := range topo {
			if mark[t] {
				list = append(list, t)
			}
		}
		d.lists[id] = list
	}
	return d
}
