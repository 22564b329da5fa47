package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/peer"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// ErrResumable marks a solve that was interrupted (context canceled)
// after writing a final "canceled" checkpoint: the returned Result holds
// the best incumbent so far, and Fleet.Resume against the same journal
// finishes the solve. Callers distinguish "aborted, resumable" from
// "failed" with errors.Is.
var ErrResumable = errors.New("dist: solve interrupted, resumable from journal")

// ErrDrained is returned by Worker.Run when the coordinator asked this
// worker to drain: it finished its in-flight slice, handed back the
// rest, and should now exit cleanly.
var ErrDrained = errors.New("dist: worker drained")

// Config tunes the coordinator side of the fabric. The zero value picks
// workable defaults for loopback fleets.
type Config struct {
	// FrontierTarget is the minimum number of frontier slices to shard one
	// solve into (default 64). More slices mean finer stealing granularity
	// and more re-dispatch units, at the cost of a deeper coordinator
	// expansion.
	FrontierTarget int

	// MaxLease caps how many slices one lease call grants (default 2).
	// Small batches keep the tail stealable.
	MaxLease int

	// LeaseTTL is how long a worker may go silent before it is evicted and
	// its slices are re-dispatched (default 3s).
	LeaseTTL time.Duration

	// Heartbeat is the interval workers are told to report at (default
	// LeaseTTL/3).
	Heartbeat time.Duration

	// RetryAfter is the poll hint returned to idle workers (default
	// 100ms).
	RetryAfter time.Duration

	// JournalPath, when non-empty, makes the coordinator crash-survivable:
	// each solve is checkpointed to this fsynced JSONL file (see
	// journal.go) and Fleet.Resume rebuilds an interrupted solve from it.
	// One file holds one solve — the latest; Solve truncates it.
	JournalPath string

	// StragglerQuantile, StragglerFactor and StragglerMinSamples tune
	// speculative re-dispatch: once at least MinSamples slice service
	// times are observed (default 8), a leased slice in flight longer
	// than Factor (default 3) times the Quantile (default 0.9) service
	// time is speculatively re-queued for a second worker. First report
	// wins; the duplicate is discarded by the existing dedup path.
	StragglerQuantile   float64
	StragglerFactor     float64
	StragglerMinSamples int

	// NoSpeculation disables straggler re-dispatch (eviction still
	// covers lost workers).
	NoSpeculation bool

	// Logf, when non-nil, receives coordinator diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FrontierTarget <= 0 {
		c.FrontierTarget = 64
	}
	if c.MaxLease <= 0 {
		c.MaxLease = 2
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 100 * time.Millisecond
	}
	if c.StragglerQuantile <= 0 || c.StragglerQuantile > 1 {
		c.StragglerQuantile = 0.9
	}
	if c.StragglerFactor <= 1 {
		c.StragglerFactor = 3
	}
	if c.StragglerMinSamples <= 0 {
		c.StragglerMinSamples = 8
	}
	return c
}

// Counters are the fleet-level occurrence counts surfaced in /metrics.
type Counters struct {
	Solves       atomic.Int64
	Dispatched   atomic.Int64
	Stolen       atomic.Int64
	Redispatched atomic.Int64
	Speculated   atomic.Int64
	Released     atomic.Int64
	Drains       atomic.Int64
	Broadcasts   atomic.Int64
	Evictions    atomic.Int64
	Duplicates   atomic.Int64
	Reports      atomic.Int64
}

// CountersSnapshot is the JSON form of Counters, plus the fleet gauges
// (active solves, journal bytes, per-worker load).
type CountersSnapshot struct {
	Workers             int          `json:"workers"`
	WorkersDraining     int          `json:"workers_draining"`
	ActiveSolves        int          `json:"active_solves"`
	JournalBytes        int64        `json:"journal_bytes"`
	Solves              int64        `json:"solves"`
	SlicesDispatched    int64        `json:"slices_dispatched"`
	SlicesStolen        int64        `json:"slices_stolen"`
	SlicesRedispatched  int64        `json:"slices_redispatched"`
	SlicesSpeculated    int64        `json:"slices_speculated"`
	SlicesReleased      int64        `json:"slices_released"`
	DrainsRequested     int64        `json:"drains_requested"`
	IncumbentBroadcasts int64        `json:"incumbent_broadcasts"`
	WorkerEvictions     int64        `json:"worker_evictions"`
	DuplicateReports    int64        `json:"duplicate_reports"`
	SliceReports        int64        `json:"slice_reports"`
	Load                []WorkerLoad `json:"load,omitempty"`
}

// WorkerLoad is one worker's load gauge: how much of its registered
// lifetime it spent inside accepted slice solves, and the quantiles of
// its recent slice service times. This is the Lively-style load-balance
// signal — the spread of BusyFraction across workers, not the worker
// count, predicts distributed wall-clock.
type WorkerLoad struct {
	ID           int64   `json:"id"`
	Name         string  `json:"name,omitempty"`
	Draining     bool    `json:"draining,omitempty"`
	Reports      int64   `json:"reports"`
	BusyFraction float64 `json:"busy_fraction"`
	ServiceP50MS float64 `json:"service_p50_ms"`
	ServiceP90MS float64 `json:"service_p90_ms"`
}

// solveSampleCap bounds the per-solve service-time ring feeding the
// straggler trigger.
const solveSampleCap = 256

type sliceStatus uint8

const (
	sliceQueued sliceStatus = iota
	sliceLeased
	sliceDone
)

// activeSolve is the coordinator's state for the one in-flight solve.
// Everything here is guarded by Fleet.mu.
type activeSolve struct {
	id       uint64
	graphRaw []byte
	g        *taskgraph.Graph // canonical form
	origG    *taskgraph.Graph // requester's numbering, for the final assemble
	inv      []taskgraph.TaskID
	seed     *sched.Schedule // canonical numbering
	plat     platform.Platform
	p        core.Params
	spec     ParamsSpec

	slices     []core.FrontierSlice
	status     []sliceStatus
	queue      []int           // slice IDs awaiting dispatch, FIFO
	owned      map[int64][]int // worker → leased slice IDs
	dispatched []time.Time     // last grant time per slice
	speculated []bool          // slice was speculatively re-dispatched once

	best     taskgraph.Time
	bestSeq  []sched.Placement // canonical numbering, valid placement order
	pending  int               // slices not yet accounted for
	stats    core.Stats        // merged accepted worker stats
	expStats core.Stats        // the frontier expansion's own share

	// svc is the per-solve slice service-time ring (seconds) feeding the
	// straggler trigger.
	svc     []float64
	svcNext int

	timedOut bool // some slice reported a "timeout" stop
	lost     bool // some slice ended without exhausting for another reason

	jr *journal.Appender // nil = not journaled

	done     chan struct{}
	finished bool
}

// noteService records one accepted slice's service time for the
// straggler trigger. Callers hold f.mu.
func (s *activeSolve) noteService(d time.Duration) {
	sec := d.Seconds()
	if len(s.svc) < solveSampleCap {
		s.svc = append(s.svc, sec)
	} else {
		s.svc[s.svcNext] = sec
		s.svcNext = (s.svcNext + 1) % solveSampleCap
	}
}

// Fleet is the coordinator: it shards a solve into frontier slices,
// leases them to workers over HTTP, maintains the shared incumbent, and
// re-dispatches slices lost to evicted workers or straggling leases. One
// Fleet serves one solve at a time (Solve/Resume serialize); the worker
// registry persists across solves.
type Fleet struct {
	cfg      Config
	counters Counters

	journalBytes atomic.Int64 // size of the active journal, for /metrics

	solveMu sync.Mutex // serializes Solve and Resume

	mu        sync.Mutex
	nextSolve uint64
	reg       *peer.Registry // worker membership, guarded by mu
	cur       *activeSolve
}

// NewFleet returns an idle coordinator.
func NewFleet(cfg Config) *Fleet {
	return &Fleet{cfg: cfg.withDefaults(), reg: peer.NewRegistry()}
}

// Snapshot returns the fleet counters and gauges.
func (f *Fleet) Snapshot() CountersSnapshot {
	f.mu.Lock()
	n := f.reg.Len()
	draining := 0
	f.reg.Each(func(m *peer.Member) {
		if m.Draining {
			draining++
		}
	})
	active := 0
	if f.cur != nil && !f.cur.finished {
		active = 1
	}
	load := f.workerLoadsLocked()
	f.mu.Unlock()
	return CountersSnapshot{
		Workers:             n,
		WorkersDraining:     draining,
		ActiveSolves:        active,
		JournalBytes:        f.journalBytes.Load(),
		Solves:              f.counters.Solves.Load(),
		SlicesDispatched:    f.counters.Dispatched.Load(),
		SlicesStolen:        f.counters.Stolen.Load(),
		SlicesRedispatched:  f.counters.Redispatched.Load(),
		SlicesSpeculated:    f.counters.Speculated.Load(),
		SlicesReleased:      f.counters.Released.Load(),
		DrainsRequested:     f.counters.Drains.Load(),
		IncumbentBroadcasts: f.counters.Broadcasts.Load(),
		WorkerEvictions:     f.counters.Evictions.Load(),
		DuplicateReports:    f.counters.Duplicates.Load(),
		SliceReports:        f.counters.Reports.Load(),
		Load:                load,
	}
}

// WorkerLoads returns the per-worker load gauges, sorted by worker ID.
func (f *Fleet) WorkerLoads() []WorkerLoad {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.workerLoadsLocked()
}

func (f *Fleet) workerLoadsLocked() []WorkerLoad {
	if f.reg.Len() == 0 {
		return nil
	}
	loads := make([]WorkerLoad, 0, f.reg.Len())
	f.reg.Each(func(m *peer.Member) {
		wl := WorkerLoad{
			ID: m.ID, Name: m.Name, Draining: m.Draining, Reports: m.Reports,
			ServiceP50MS: m.ServiceQuantile(0.5) * 1000,
			ServiceP90MS: m.ServiceQuantile(0.9) * 1000,
		}
		if alive := time.Since(m.JoinedAt); alive > 0 {
			wl.BusyFraction = m.Busy.Seconds() / alive.Seconds()
		}
		loads = append(loads, wl)
	})
	sort.Slice(loads, func(i, j int) bool { return loads[i].ID < loads[j].ID })
	return loads
}

// WorkerCount returns the number of registered workers.
func (f *Fleet) WorkerCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reg.Len()
}

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// touch registers or refreshes a worker. Callers hold f.mu.
func (f *Fleet) touch(id int64, name string) *peer.Member {
	return f.reg.Touch(id, name)
}

// Solve distributes one branch-and-bound run across the registered
// workers and blocks until every frontier slice is accounted for (or ctx
// expires, returning the best incumbent so far). With no workers joined
// it waits for some to appear — callers own the deadline. With
// Config.JournalPath set the solve is checkpointed throughout; a cancel
// then returns the partial result wrapped in ErrResumable, and
// Fleet.Resume finishes the solve later.
func (f *Fleet) Solve(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p core.Params) (core.Result, error) {
	f.solveMu.Lock()
	defer f.solveMu.Unlock()

	if err := checkDistributable(p); err != nil {
		return core.Result{}, err
	}
	spec, err := SpecFromParams(p)
	if err != nil {
		return core.Result{}, err
	}
	if p.Resources.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Resources.TimeLimit)
		defer cancel()
	}

	canon, perm, err := g.Canonical()
	if err != nil {
		return core.Result{}, err
	}
	inv := make([]taskgraph.TaskID, len(perm))
	for old, canonID := range perm {
		inv[canonID] = taskgraph.TaskID(old)
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		return core.Result{}, err
	}
	origRaw, err := json.Marshal(g)
	if err != nil {
		return core.Result{}, err
	}

	fp := p
	fp.Resources.TimeLimit = 0 // the frontier expansion is cheap; ctx governs the solve
	front, err := core.EnumerateFrontier(canon, plat, fp, f.cfg.FrontierTarget)
	if err != nil {
		return core.Result{}, err
	}
	f.counters.Solves.Add(1)

	if front.Exhausted {
		// The shallow expansion finished the search on its own: nothing to
		// distribute, and the expansion IS the exhaustive proof.
		return f.assemble(g, plat, p, front.Stats, front.BestCost, front.BestSeq, front.Seed, inv, core.TermExhausted)
	}

	s := &activeSolve{
		g: canon, graphRaw: raw, origG: g, inv: inv, seed: front.Seed,
		plat: plat, p: p, spec: spec,
		slices:     front.Slices,
		status:     make([]sliceStatus, len(front.Slices)),
		queue:      make([]int, len(front.Slices)),
		owned:      map[int64][]int{},
		dispatched: make([]time.Time, len(front.Slices)),
		speculated: make([]bool, len(front.Slices)),
		best:       front.BestCost,
		bestSeq:    front.BestSeq,
		pending:    len(front.Slices),
		expStats:   front.Stats,
		done:       make(chan struct{}),
	}
	for i := range s.queue {
		s.queue[i] = i
	}

	f.mu.Lock()
	f.nextSolve++
	s.id = f.nextSolve
	f.mu.Unlock()

	if f.cfg.JournalPath != "" {
		// The solve record must be durable before any worker can report:
		// truncate (one file = the latest solve), write, fsync, THEN publish.
		jr, err := journal.OpenAppend(f.cfg.JournalPath, false)
		if err != nil {
			return core.Result{}, err
		}
		if err := jr.Append(solveCheckpoint(s, origRaw)); err != nil {
			_ = jr.Close()
			return core.Result{}, err
		}
		s.jr = jr
		f.journalBytes.Store(jr.Size())
	}

	return f.run(ctx, s)
}

// run publishes s as the active solve, waits for every slice to be
// accounted for (re-dispatching stragglers and evicting dead workers
// along the way), journals the final record, and assembles the result.
// Shared by Solve and Resume.
func (f *Fleet) run(ctx context.Context, s *activeSolve) (core.Result, error) {
	f.mu.Lock()
	if s.id > f.nextSolve {
		f.nextSolve = s.id // a resumed ID stays unique for future solves
	}
	f.cur = s
	if s.pending == 0 && !s.finished {
		s.finished = true // resumed journal was already fully accounted
		close(s.done)
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		s.finished = true
		f.cur = nil
		f.mu.Unlock()
	}()

	janitor := time.NewTicker(f.cfg.Heartbeat)
	defer janitor.Stop()
	reason := core.TermExhausted
	running := true
	for running {
		select {
		case <-s.done:
			running = false
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded {
				reason = core.TermTimeLimit
			} else {
				reason = core.TermCanceled
			}
			running = false
		case <-janitor.C:
			f.maintain(s)
		}
	}

	f.mu.Lock()
	if reason == core.TermExhausted {
		switch {
		case s.timedOut:
			reason = core.TermTimeLimit
		case s.lost:
			reason = core.TermResourceLoss
		}
	}
	stats := foldStats(s, reason)
	best, bestSeq := s.best, s.bestSeq
	resumable := s.jr != nil && reason == core.TermCanceled
	f.appendCheckpoint(s, CheckpointRecord{Kind: checkpointKindFinal, Final: &FinalCheckpoint{
		SolveID: s.id, Reason: reasonString(reason), Best: int64(best),
	}})
	if s.jr != nil {
		if err := s.jr.Close(); err != nil {
			f.logf("dist: journal close: %v", err)
		}
		s.jr = nil
	}
	f.mu.Unlock()

	res, err := f.assemble(s.origG, s.plat, s.p, stats, best, bestSeq, s.seed, s.inv, reason)
	if err != nil {
		return res, err
	}
	if resumable {
		return res, fmt.Errorf("dist: solve %d canceled with %d/%d slices pending: %w",
			s.id, s.pending, len(s.slices), ErrResumable)
	}
	return res, nil
}

// foldStats merges the frontier expansion's counters into the accepted
// worker stats. Callers hold f.mu.
func foldStats(s *activeSolve, reason core.TermReason) core.Stats {
	stats := s.stats
	stats.Generated += s.expStats.Generated
	stats.Expanded += s.expStats.Expanded
	stats.Goals += s.expStats.Goals
	stats.PrunedChildren += s.expStats.PrunedChildren
	stats.PrunedActive += s.expStats.PrunedActive
	stats.Skipped += s.expStats.Skipped
	stats.IncumbentUpdates += s.expStats.IncumbentUpdates
	if s.expStats.MaxActiveSet > stats.MaxActiveSet {
		stats.MaxActiveSet = s.expStats.MaxActiveSet
	}
	stats.TimedOut = reason == core.TermTimeLimit
	return stats
}

// assemble builds the final Result over the ORIGINAL graph: the best
// placement sequence (canonical numbering) is remapped through the
// inverse permutation and re-verified end to end.
func (f *Fleet) assemble(g *taskgraph.Graph, plat platform.Platform, p core.Params,
	stats core.Stats, best taskgraph.Time, bestSeq []sched.Placement,
	seed *sched.Schedule, inv []taskgraph.TaskID, reason core.TermReason) (core.Result, error) {

	res := core.Result{Cost: taskgraph.Infinity, Params: p, Stats: stats, Reason: reason}
	pls := bestSeq
	if pls == nil && seed != nil && best < taskgraph.Infinity {
		pls = seed.Placements()
	}
	if pls != nil {
		out := sched.NewSchedule(g, plat)
		for _, pl := range pls {
			out.Set(inv[pl.Task], pl.Proc, pl.Start)
		}
		if !out.Complete() {
			return core.Result{}, fmt.Errorf("dist: merged schedule incomplete")
		}
		if err := out.Check(); err != nil {
			return core.Result{}, fmt.Errorf("dist: merged schedule invalid: %w", err)
		}
		if got := out.Lmax(); got != best {
			return core.Result{}, fmt.Errorf("dist: merged cost drift: recorded %d, remapped %d", best, got)
		}
		res.Schedule = out
		res.Cost = best
	}
	res.Guarantee = reason == core.TermExhausted && p.Branching.Exact() && res.Schedule != nil
	res.Optimal = res.Guarantee && p.BR == 0
	return res, nil
}

// checkDistributable rejects parameter combinations the wire protocol
// cannot ship or the split cannot keep sound.
func checkDistributable(p core.Params) error {
	switch {
	case p.Dominance:
		return fmt.Errorf("dist: the dominance rule is not distributable (the domination table is global)")
	case p.Dedup:
		return fmt.Errorf("dist: Dedup is not distributable; use DuplicateFree")
	case p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0:
		return fmt.Errorf("dist: MAXSZAS/MAXSZDB are not distributable")
	case p.UpperBound == core.UpperBoundSeeded:
		return fmt.Errorf("dist: seeded upper bounds are not distributable")
	case p.Observer != nil:
		return fmt.Errorf("dist: observers are not distributable")
	case p.Prefix != nil || p.Link != nil:
		return fmt.Errorf("dist: Prefix/Link are owned by the fabric")
	case p.UseGlobalBound:
		return fmt.Errorf("dist: external global bounds are not distributable")
	case p.ChildOrder != core.ChildrenByLowerBound || p.LLBTie != core.TieOldest:
		return fmt.Errorf("dist: non-default child order / tie-break are not on the wire")
	case p.ReferenceKernel:
		return fmt.Errorf("dist: the reference kernel is a local differential-testing mode")
	}
	return nil
}

// maintain is the janitor tick: evict dead workers, then speculate on
// stragglers.
func (f *Fleet) maintain(s *activeSolve) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.finished {
		return
	}
	f.evictStaleLocked(s)
	f.speculateLocked(s)
}

// evictStaleLocked re-queues the slices of every worker whose lease
// expired. Callers hold f.mu.
func (f *Fleet) evictStaleLocked(s *activeSolve) {
	cutoff := time.Now().Add(-f.cfg.LeaseTTL)
	f.reg.Each(func(m *peer.Member) {
		slices := s.owned[m.ID]
		if len(slices) == 0 || m.LastSeen.After(cutoff) {
			return
		}
		requeued := 0
		for _, sl := range slices {
			if s.status[sl] == sliceLeased && !inQueue(s, sl) {
				s.status[sl] = sliceQueued
				s.queue = append(s.queue, sl)
				requeued++
			}
		}
		delete(s.owned, m.ID)
		f.counters.Evictions.Add(1)
		f.counters.Redispatched.Add(int64(requeued))
		f.logf("dist: evicted worker %d (%s): re-dispatching %d slices", m.ID, m.Name, requeued)
	})
}

// speculateLocked re-queues leased slices that have been in flight far
// longer than the observed service-time quantile: a second worker races
// the straggler, and the first report wins (the loser is deduplicated
// exactly like a post-eviction duplicate). Each slice is speculated at
// most once; true worker loss is still covered by eviction. Callers
// hold f.mu.
func (f *Fleet) speculateLocked(s *activeSolve) {
	if f.cfg.NoSpeculation || len(s.svc) < f.cfg.StragglerMinSamples {
		return
	}
	threshold := peer.Quantile(s.svc, f.cfg.StragglerQuantile) * f.cfg.StragglerFactor
	if threshold <= 0 {
		return
	}
	now := time.Now()
	for sl := range s.slices {
		if s.status[sl] != sliceLeased || s.speculated[sl] || inQueue(s, sl) {
			continue
		}
		d := s.dispatched[sl]
		if d.IsZero() || now.Sub(d).Seconds() < threshold {
			continue
		}
		s.speculated[sl] = true
		s.queue = append(s.queue, sl)
		f.counters.Speculated.Add(1)
		f.logf("dist: speculating slice %d (in flight %.0fms > %.0fms trigger)",
			sl, now.Sub(d).Seconds()*1000, threshold*1000)
	}
}

// validateClaim screens a claimed schedule against the current solve
// under a short critical section, then replays it with no lock held: the
// O(n) replay must not serialize every lease, report, and heartbeat
// behind one worker's incumbent claim. Callers pass the result to
// adoptValidated, which re-checks the incumbent under f.mu (it may have
// improved past cost while the lock was released).
func (f *Fleet) validateClaim(solveID uint64, cost taskgraph.Time, pls []sched.Placement) bool {
	if len(pls) == 0 {
		return false
	}
	f.mu.Lock()
	s := f.cur
	if s == nil || s.id != solveID || cost >= s.best || len(pls) != s.g.NumTasks() {
		f.mu.Unlock()
		return false
	}
	g, plat := s.g, s.plat
	f.mu.Unlock()

	if !replayOK(g, plat, pls, cost) {
		f.logf("dist: rejected incumbent claim %d: replay mismatch", cost)
		return false
	}
	return true
}

// adoptValidated adopts a schedule that already passed validateClaim
// when it still strictly improves the incumbent, prunes the undispatched
// queue against the new bound, and journals the adoption. Callers hold
// f.mu. Returns whether the incumbent improved.
func (f *Fleet) adoptValidated(s *activeSolve, cost taskgraph.Time, pls []sched.Placement) bool {
	if cost >= s.best || len(pls) != s.g.NumTasks() {
		return false
	}
	s.best = cost
	s.bestSeq = append([]sched.Placement(nil), pls...)
	s.stats.IncumbentUpdates++
	f.counters.Broadcasts.Add(1)

	// Prune the undispatched tail: these slices are eliminated by the new
	// validated bound exactly as a sequential active set would drop them.
	limit := core.PruneLimit(s.best, s.p.BR)
	var pruned []int
	kept := s.queue[:0]
	for _, sl := range s.queue {
		if s.slices[sl].LB >= limit && s.status[sl] != sliceDone {
			s.status[sl] = sliceDone
			s.pending--
			s.stats.PrunedActive++
			pruned = append(pruned, sl)
			continue
		}
		kept = append(kept, sl)
	}
	s.queue = kept
	f.logf("dist: adopted incumbent %d for solve %d (pruned %d queued slices)", cost, s.id, len(pruned))
	f.appendCheckpoint(s, CheckpointRecord{Kind: checkpointKindIncumbent, Incumbent: &IncumbentCheckpoint{
		SolveID: s.id, Cost: int64(cost), Placements: s.bestSeq, Pruned: pruned,
	}})
	if s.pending == 0 && !s.finished {
		s.finished = true
		close(s.done)
	}
	return true
}

// replayOK verifies a claimed schedule: the placement sequence must
// replay exactly (readiness, recorded times) and land on the claimed
// cost with every task placed.
func replayOK(g *taskgraph.Graph, plat platform.Platform, pls []sched.Placement, cost taskgraph.Time) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	st := sched.NewState(g, plat)
	if err := st.Replay(pls); err != nil {
		return false
	}
	return st.Lmax() == cost
}

// ---- HTTP surface ----

// Handler returns the coordinator's HTTP API under /dist/v1/.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/dist/v1/join", f.handleJoin)
	mux.HandleFunc("/dist/v1/lease", f.handleLease)
	mux.HandleFunc("/dist/v1/report", f.handleReport)
	mux.HandleFunc("/dist/v1/incumbent", f.handleIncumbent)
	mux.HandleFunc("/dist/v1/heartbeat", f.handleHeartbeat)
	mux.HandleFunc("/dist/v1/drain", f.handleDrain)
	mux.HandleFunc("/dist/v1/release", f.handleRelease)
	return mux
}

// The JSON envelope (POST-only, unknown fields rejected, size-capped,
// typed error body) lives in internal/peer; these aliases keep the
// handler bodies on the fabric's own vocabulary.
func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	return peer.DecodeJSON[T](w, r)
}

func writeJSON(w http.ResponseWriter, v any) {
	peer.WriteJSON(w, v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	peer.WriteError(w, code, msg)
}

func (f *Fleet) handleJoin(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[JoinRequest](w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	ws := f.touch(req.WorkerID, req.Name)
	var active uint64
	if f.cur != nil && !f.cur.finished {
		active = f.cur.id
	}
	draining := ws.Draining
	f.mu.Unlock()
	f.logf("dist: worker %d (%s) joined", ws.ID, ws.Name)
	writeJSON(w, JoinResponse{
		WorkerID:    ws.ID,
		LeaseTTLMS:  int64(f.cfg.LeaseTTL / time.Millisecond),
		HeartbeatMS: int64(f.cfg.Heartbeat / time.Millisecond),
		ActiveSolve: active,
		Draining:    draining,
	})
}

func (f *Fleet) handleLease(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[LeaseRequest](w, r)
	if !ok {
		return
	}
	if req.WorkerID <= 0 {
		writeError(w, http.StatusBadRequest, "worker_id required (join first)")
		return
	}
	max := req.Max
	if max <= 0 || max > f.cfg.MaxLease {
		max = f.cfg.MaxLease
	}

	f.mu.Lock()
	ws := f.touch(req.WorkerID, req.Name)
	if ws.Draining {
		// No new work for a draining worker: it finishes what it holds,
		// releases the rest, and exits.
		f.mu.Unlock()
		writeJSON(w, LeaseResponse{None: true, Drain: true, RetryMS: int64(f.cfg.RetryAfter / time.Millisecond), Incumbent: int64(taskgraph.Infinity)})
		return
	}
	s := f.cur
	if s == nil || s.finished {
		f.mu.Unlock()
		writeJSON(w, LeaseResponse{None: true, RetryMS: int64(f.cfg.RetryAfter / time.Millisecond), Incumbent: int64(taskgraph.Infinity)})
		return
	}

	var granted []int
	for len(granted) < max && len(s.queue) > 0 {
		sl := s.queue[0]
		s.queue = s.queue[1:]
		granted = append(granted, sl)
	}
	f.counters.Dispatched.Add(int64(len(granted)))
	if len(granted) == 0 {
		// Work stealing: take the tail of the most-loaded worker's batch —
		// the slices it has not started yet — and leave it at least one.
		// Joiners re-shard a running solve through exactly this path.
		if victim, n := f.stealVictim(s, ws.ID); victim != 0 {
			owned := s.owned[victim]
			steal := owned[n-1]
			s.owned[victim] = owned[:n-1]
			granted = append(granted, steal)
			f.counters.Stolen.Add(1)
			f.counters.Dispatched.Add(1)
		}
	}
	if len(granted) == 0 {
		f.mu.Unlock()
		writeJSON(w, LeaseResponse{None: true, RetryMS: int64(f.cfg.RetryAfter / time.Millisecond), Incumbent: int64(taskgraph.Infinity)})
		return
	}

	resp := LeaseResponse{
		SolveID:   s.id,
		Procs:     s.plat.M,
		Params:    s.spec,
		Incumbent: int64(s.best),
	}
	if req.HaveSolve != s.id {
		resp.Graph = s.graphRaw
	}
	now := time.Now()
	for _, sl := range granted {
		s.status[sl] = sliceLeased
		s.owned[ws.ID] = append(s.owned[ws.ID], sl)
		s.dispatched[sl] = now
		resp.Slices = append(resp.Slices, WireSlice{ID: sl, Prefix: s.slices[sl].Prefix})
	}
	f.mu.Unlock()
	writeJSON(w, resp)
}

// stealVictim picks the worker with the most leased slices (at least 2,
// excluding the thief). Callers hold f.mu. Returns the victim ID and its
// owned count, or (0, 0).
func (f *Fleet) stealVictim(s *activeSolve, thief int64) (int64, int) {
	var victim int64
	best := 1
	for id, owned := range s.owned {
		if id == thief {
			continue
		}
		if len(owned) > best {
			victim, best = id, len(owned)
		}
	}
	if victim == 0 {
		return 0, 0
	}
	return victim, best
}

func (f *Fleet) handleReport(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ReportRequest](w, r)
	if !ok {
		return
	}
	validated := f.validateClaim(req.SolveID, taskgraph.Time(req.Cost), req.Placements)
	f.mu.Lock()
	ws := f.touch(req.WorkerID, "")
	s := f.cur
	if s == nil || s.id != req.SolveID {
		drain := ws.Draining
		f.mu.Unlock()
		writeJSON(w, ReportResponse{Accepted: false, Abandon: true, Drain: drain, Incumbent: int64(taskgraph.Infinity)})
		return
	}
	if req.SliceID < 0 || req.SliceID >= len(s.slices) {
		f.mu.Unlock()
		writeError(w, http.StatusBadRequest, "unknown slice id")
		return
	}
	f.counters.Reports.Add(1)
	dropOwned(s, req.WorkerID, req.SliceID)

	resp := ReportResponse{}
	sc := &SliceCheckpoint{SolveID: s.id, ID: req.SliceID, Exhausted: req.Exhausted, Reason: req.Reason, Stats: req.Stats}
	if !s.foldSlice(sc) {
		// A faster worker or a re-dispatch already accounted for this
		// slice: discard so Stats never double-count one subtree.
		f.counters.Duplicates.Add(1)
	} else {
		resp.Accepted = true
		if d := s.dispatched[req.SliceID]; !d.IsZero() {
			service := time.Since(d)
			s.noteService(service)
			ws.NoteService(service)
		}
		if !req.Exhausted {
			f.logf("dist: slice %d accepted non-exhausted (%s) from worker %d: optimality proof lost",
				req.SliceID, req.Reason, req.WorkerID)
		}
		if validated {
			f.adoptValidated(s, taskgraph.Time(req.Cost), req.Placements)
		}
		// Journal AFTER any adoption: a slice may become durably done only
		// once every incumbent it carried is durable (see journal.go).
		f.appendCheckpoint(s, CheckpointRecord{Kind: checkpointKindSlice, Slice: sc})
		if s.pending == 0 && !s.finished {
			s.finished = true
			close(s.done)
		}
	}
	resp.Incumbent = int64(s.best)
	resp.Abandon = s.finished
	resp.Drain = ws.Draining
	f.mu.Unlock()
	writeJSON(w, resp)
}

// foldSlice accounts one slice report: the slice is done, its counters
// join the solve's, and a slice that ended without exhausting its subtree
// costs the run its optimality proof — a "timeout" reason as a time limit,
// any other as a loss. A slice already done is left alone (first report
// wins) and foldSlice returns false. Live reports and journal replay both
// fold here. Callers hold f.mu, or own s exclusively as replay does.
func (s *activeSolve) foldSlice(sc *SliceCheckpoint) bool {
	if s.status[sc.ID] == sliceDone {
		return false
	}
	s.status[sc.ID] = sliceDone
	s.pending--
	dequeue(s, sc.ID)
	st := &s.stats
	st.Generated += sc.Stats.Generated
	st.Expanded += sc.Stats.Expanded
	st.Goals += sc.Stats.Goals
	st.PrunedChildren += sc.Stats.PrunedChildren
	st.PrunedActive += sc.Stats.PrunedActive
	st.MaxActiveSet = max(st.MaxActiveSet, sc.Stats.MaxActiveSet)
	st.Skipped += sc.Stats.Skipped
	switch {
	case sc.Exhausted:
	case sc.Reason == "timeout":
		s.timedOut = true
	default:
		s.lost = true
	}
	return true
}

// dropOwned removes a slice from a worker's owned list. Callers hold f.mu.
func dropOwned(s *activeSolve, worker int64, slice int) {
	owned := s.owned[worker]
	for i, sl := range owned {
		if sl == slice {
			s.owned[worker] = append(owned[:i], owned[i+1:]...)
			return
		}
	}
}

// ownsSlice reports whether the worker currently holds the slice.
// Callers hold f.mu.
func ownsSlice(s *activeSolve, worker int64, slice int) bool {
	for _, sl := range s.owned[worker] {
		if sl == slice {
			return true
		}
	}
	return false
}

// dequeue removes a slice from the dispatch queue if still present (a
// slice reported by a slow former owner can complete while re-queued).
// Callers hold f.mu.
func dequeue(s *activeSolve, slice int) {
	for i, sl := range s.queue {
		if sl == slice {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// inQueue reports whether the slice is already awaiting dispatch — the
// guard that keeps eviction, speculation, and release from ever queueing
// one slice twice. Callers hold f.mu.
func inQueue(s *activeSolve, slice int) bool {
	for _, sl := range s.queue {
		if sl == slice {
			return true
		}
	}
	return false
}

func (f *Fleet) handleIncumbent(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[IncumbentRequest](w, r)
	if !ok {
		return
	}
	validated := f.validateClaim(req.SolveID, taskgraph.Time(req.Cost), req.Placements)
	f.mu.Lock()
	f.touch(req.WorkerID, "")
	s := f.cur
	if s == nil || s.id != req.SolveID {
		f.mu.Unlock()
		writeJSON(w, IncumbentResponse{Incumbent: int64(taskgraph.Infinity)})
		return
	}
	if validated {
		f.adoptValidated(s, taskgraph.Time(req.Cost), req.Placements)
	}
	resp := IncumbentResponse{Incumbent: int64(s.best)}
	f.mu.Unlock()
	writeJSON(w, resp)
}

func (f *Fleet) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[HeartbeatRequest](w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	ws := f.touch(req.WorkerID, "")
	s := f.cur
	resp := HeartbeatResponse{Incumbent: int64(taskgraph.Infinity), Drain: ws.Draining}
	if s != nil && s.id == req.SolveID && !s.finished {
		resp.Incumbent = int64(s.best)
	} else {
		resp.Abandon = true
	}
	f.mu.Unlock()
	writeJSON(w, resp)
}

// handleDrain marks one worker (by ID or name) as draining: it gets no
// new leases, is told to finish its in-flight slice, hand back the rest,
// and exit. An external supervisor shrinks the fleet with this; growth
// is just more joins (the steal path re-shards onto joiners).
func (f *Fleet) handleDrain(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[DrainRequest](w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	var ws *peer.Member
	if req.WorkerID > 0 {
		ws = f.reg.Find(req.WorkerID)
	} else if req.Name != "" {
		ws = f.reg.FindName(req.Name)
	}
	if ws == nil {
		f.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such worker")
		return
	}
	if !ws.Draining {
		ws.Draining = true
		f.counters.Drains.Add(1)
	}
	owned := 0
	if f.cur != nil {
		owned = len(f.cur.owned[ws.ID])
	}
	f.mu.Unlock()
	f.logf("dist: draining worker %d (%s): %d slices in flight", ws.ID, ws.Name, owned)
	writeJSON(w, DrainResponse{WorkerID: ws.ID, Draining: true, Owned: owned})
}

// handleRelease takes back slices a draining (or terminating) worker
// never started and re-queues them immediately — the voluntary twin of
// eviction, without waiting out the lease TTL.
func (f *Fleet) handleRelease(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ReleaseRequest](w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	f.touch(req.WorkerID, "")
	s := f.cur
	requeued := 0
	if s != nil && s.id == req.SolveID && !s.finished {
		for _, sl := range req.Slices {
			if sl < 0 || sl >= len(s.slices) || !ownsSlice(s, req.WorkerID, sl) {
				continue
			}
			dropOwned(s, req.WorkerID, sl)
			if s.status[sl] == sliceLeased && !inQueue(s, sl) {
				s.status[sl] = sliceQueued
				s.queue = append(s.queue, sl)
				requeued++
			}
		}
		f.counters.Released.Add(int64(requeued))
	}
	f.mu.Unlock()
	if requeued > 0 {
		f.logf("dist: worker %d released %d slices back to the queue", req.WorkerID, requeued)
	}
	writeJSON(w, ReleaseResponse{Requeued: requeued})
}
