package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hetero"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/portfolio"
	"repro/internal/rescue"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// The wire protocol: every /v1 endpoint takes a JSON POST body carrying
// the task graph inline (the stable taskgraph codec — tasks in ID order,
// channels sorted) plus endpoint-specific knobs, and returns a JSON
// document. Budgets are request-scoped milliseconds, clamped to the
// server's MaxBudget; zero means the server's DefaultBudget.

// GraphRequest is the part every request shares. The optional platform
// tables select the heterogeneous scenario matrix: speed_factors gives one
// positive factor per processor (the uniform related-machines model —
// nominal demand c runs in ceil(c/s_q) on processor q), affinities gives
// one bitmask per task (bit q set: the task may run on processor q).
// Omitting both is exactly the paper's homogeneous platform, and explicit
// unit factors / universal masks are normalized to it, cache lines
// included.
type GraphRequest struct {
	Graph        *taskgraph.Graph `json:"graph"`
	Procs        int              `json:"procs"`
	SpeedFactors []float64        `json:"speed_factors,omitempty"`
	Affinities   []uint64         `json:"affinities,omitempty"`
}

func (r *GraphRequest) platform() (platform.Platform, error) {
	if r.Graph == nil || r.Graph.NumTasks() == 0 {
		return platform.Platform{}, fmt.Errorf("missing or empty graph")
	}
	if r.Procs < 1 || r.Procs > 127 {
		return platform.Platform{}, fmt.Errorf("procs %d outside [1,127]", r.Procs)
	}
	p := platform.New(r.Procs)
	p.Speed = r.SpeedFactors
	p.Affinity = r.Affinities
	if err := hetero.ValidateSpec(p, r.Graph.NumTasks()); err != nil {
		return platform.Platform{}, err
	}
	return p, nil
}

// budget clamps a request's budget_ms to the server limits.
func budgetFrom(ms int64, cfg Config) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("negative budget_ms %d", ms)
	}
	if ms == 0 {
		return cfg.DefaultBudget, nil
	}
	d := time.Duration(ms) * time.Millisecond
	if d > cfg.MaxBudget {
		d = cfg.MaxBudget
	}
	return d, nil
}

// SolveRequest is the exact/approximate B&B endpoint input. The rule
// names are core.Params.ParseRules's, shared with cmd/bbsched and the
// fleet wire: select ∈ {lifo, llb, fifo}, branch ∈ {bfn, df, bf1}, bound
// ∈ {lb1, lb0, none}; empty strings pick the paper's recommended defaults.
type SolveRequest struct {
	GraphRequest
	// Mode selects the execution model: "" or "global" is the paper's
	// time-driven search over (task, processor, time) placements;
	// "partitioned" branches over task→processor assignments with
	// per-processor EDF ordering execution (internal/hetero). The
	// partitioned searcher has no strategy knobs: select/branch/bound/br,
	// workers, distributed and dedup must all be absent.
	Mode     string  `json:"mode,omitempty"`
	Select   string  `json:"select,omitempty"`
	Branch   string  `json:"branch,omitempty"`
	Bound    string  `json:"bound,omitempty"`
	BR       float64 `json:"br,omitempty"`
	BudgetMS int64   `json:"budget_ms,omitempty"`
	Workers  int     `json:"workers,omitempty"` // >1 → parallel solver
	// Distributed shards the solve across the coordinator's worker fleet
	// instead of solving in-process. Requires the server to be started
	// with a Fleet (bbserved -distributed); mutually exclusive with
	// Workers.
	Distributed bool `json:"distributed,omitempty"`
	// Dedup asks for duplicate detection. Every global solve the server
	// runs is already duplicate-free (core.Params.DuplicateFree), which
	// removes the duplicates a transposition table would catch, so the
	// knob builds no table and leaves the answer bytes and cache key
	// alone. The partitioned mode rejects it.
	Dedup bool `json:"dedup,omitempty"`
}

// partitioned resolves the request mode, rejecting knobs the partitioned
// searcher does not have.
func (r *SolveRequest) partitioned() (bool, error) {
	switch r.Mode {
	case "", "global":
		return false, nil
	case "partitioned":
		if r.Select != "" || r.Branch != "" || r.Bound != "" || r.BR != 0 {
			return false, fmt.Errorf("mode=partitioned has no select/branch/bound/br knobs")
		}
		if r.Workers > 1 {
			return false, fmt.Errorf("mode=partitioned is single-threaded; workers must be absent")
		}
		if r.Distributed {
			return false, fmt.Errorf("mode=partitioned cannot be distributed")
		}
		if r.Dedup {
			return false, fmt.Errorf("mode=partitioned has no duplicate detection")
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown mode %q", r.Mode)
}

func (r *SolveRequest) params() (core.Params, error) {
	var p core.Params
	if err := p.ParseRules(r.Select, r.Branch, r.Bound); err != nil {
		return p, err
	}
	if r.BR < 0 || r.BR >= 1 {
		return p, fmt.Errorf("BR %v outside [0,1)", r.BR)
	}
	p.BR = r.BR
	if r.Workers < 0 || r.Workers > 256 {
		return p, fmt.Errorf("workers %d outside [0,256]", r.Workers)
	}
	// A served solve returns Lmax, the flags and one schedule, not the
	// paper's tree, so every global solve, in-process or on the fleet,
	// skips duplicate children; Dedup has nothing left to prune.
	p.DuplicateFree = r.Mode != "partitioned"
	return p, nil
}

// SearchStats is the wire form of the solver's effort counters. Wall-clock
// fields are deliberately omitted so that responses for one cache key are
// deterministic.
type SearchStats struct {
	Generated    int64 `json:"generated"`
	Expanded     int64 `json:"expanded"`
	Goals        int64 `json:"goals"`
	MaxActiveSet int   `json:"max_active_set"`
	TimedOut     bool  `json:"timed_out"`
}

func searchStats(st core.Stats) SearchStats {
	return SearchStats{
		Generated:    st.Generated,
		Expanded:     st.Expanded,
		Goals:        st.Goals,
		MaxActiveSet: st.MaxActiveSet,
		TimedOut:     st.TimedOut,
	}
}

// SolveResponse reports a solve outcome. Feasible is false when the search
// found no complete schedule below the initial upper bound; the remaining
// fields are then zero.
type SolveResponse struct {
	Feasible  bool              `json:"feasible"`
	Lmax      taskgraph.Time    `json:"lmax"`
	Makespan  taskgraph.Time    `json:"makespan"`
	Optimal   bool              `json:"optimal"`
	Guarantee bool              `json:"guarantee"`
	Reason    string            `json:"reason"`
	Stats     SearchStats       `json:"stats"`
	Schedule  []sched.Placement `json:"schedule,omitempty"`
}

func solveResponse(res core.Result) SolveResponse {
	out := SolveResponse{
		Optimal:   res.Optimal,
		Guarantee: res.Guarantee,
		Reason:    res.Reason.String(),
		Stats:     searchStats(res.Stats),
	}
	if res.Schedule != nil {
		out.Feasible = true
		out.Lmax = res.Cost
		out.Makespan = res.Schedule.Makespan()
		out.Schedule = res.Schedule.Placements()
	}
	return out
}

// partitionedResponse maps a partitioned-mode solve onto the shared
// SolveResponse shape. The counters translate as: Generated = assignment
// vertices considered (visited + bound-pruned children), Expanded =
// vertices visited, Goals = complete assignments simulated.
func partitionedResponse(res hetero.Result) SolveResponse {
	return SolveResponse{
		Feasible: true, // the EDF-seeded incumbent always exists
		Lmax:     res.Cost,
		Makespan: res.Schedule.Makespan(),
		Optimal:  res.Optimal,
		Reason:   partitionedReason(res),
		Stats: SearchStats{
			Generated: res.Stats.Visited + res.Stats.Pruned,
			Expanded:  res.Stats.Visited,
			Goals:     res.Stats.Evaluated,
			TimedOut:  res.Stats.TimedOut,
		},
		Schedule: res.Schedule.Placements(),
	}
}

func partitionedReason(res hetero.Result) string {
	switch {
	case res.Optimal:
		return "exhausted"
	case res.Stats.TimedOut:
		return "time-limit"
	default:
		return "canceled"
	}
}

// BatchRequest solves a set of graphs as one request. Members that are
// relabeled copies of one instance (same platform, parameters, and
// budget) share a single kernel solve through their canonical cache
// key; every member still receives a schedule in its own task IDs.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchResponse carries one SolveResponse per batch member, in request
// order, plus the dedup accounting: Classes distinct solves covered the
// batch, Deduped members rode along on another member's class, and
// CacheHits classes were served without a new solve (local or peer
// cache).
type BatchResponse struct {
	Results   []SolveResponse `json:"results"`
	Classes   int             `json:"classes"`
	Deduped   int             `json:"deduped"`
	CacheHits int             `json:"cache_hits"`
}

// AnytimeRequest drives the portfolio pipeline (bounds → greedy → local
// search → warm-started exact search).
type AnytimeRequest struct {
	GraphRequest
	BudgetMS     int64 `json:"budget_ms,omitempty"`
	Workers      int   `json:"workers,omitempty"`
	ImproveIters int   `json:"improve_iters,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
}

// AnytimeResponse is the portfolio outcome: always a schedule, with the
// certified lower bound and the optimality status.
type AnytimeResponse struct {
	Lmax     taskgraph.Time    `json:"lmax"`
	Lower    taskgraph.Time    `json:"lower"`
	Gap      taskgraph.Time    `json:"gap"`
	Optimal  bool              `json:"optimal"`
	Stage    string            `json:"stage"`
	Greedy   string            `json:"greedy"`
	Stats    SearchStats       `json:"stats"`
	Schedule []sched.Placement `json:"schedule"`
}

func anytimeResponse(res portfolio.Result) AnytimeResponse {
	return AnytimeResponse{
		Lmax:     res.Cost,
		Lower:    res.Lower,
		Gap:      res.Gap,
		Optimal:  res.Optimal,
		Stage:    string(res.Stage),
		Greedy:   res.Greedy.String(),
		Stats:    searchStats(res.Search),
		Schedule: res.Schedule.Placements(),
	}
}

// ListRequest runs a polynomial-time list scheduler: policy ∈ {hlfet,
// slack, edf, best} (empty = best, the whole portfolio).
type ListRequest struct {
	GraphRequest
	Policy string `json:"policy,omitempty"`
}

// ListResponse is the list-scheduling outcome.
type ListResponse struct {
	Lmax     taskgraph.Time    `json:"lmax"`
	Makespan taskgraph.Time    `json:"makespan"`
	Policy   string            `json:"policy"`
	Schedule []sched.Placement `json:"schedule"`
}

// AnalyzeRequest computes the certified a-priori bounds.
type AnalyzeRequest struct {
	GraphRequest
}

// AnalyzeResponse carries the workload bounds of internal/analysis.
type AnalyzeResponse struct {
	TotalWork    taskgraph.Time `json:"total_work"`
	Utilization  float64        `json:"utilization"`
	CriticalPath taskgraph.Time `json:"critical_path"`
	DemandLmax   taskgraph.Time `json:"demand_lmax"`
	PathLmax     taskgraph.Time `json:"path_lmax"`
	Lower        taskgraph.Time `json:"lower"`
	Infeasible   bool           `json:"infeasible"`
}

// FaultSpec is the wire form of one injected fault: kind ∈ {proc-failure,
// exec-overrun}.
type FaultSpec struct {
	Kind  string           `json:"kind"`
	Proc  int              `json:"proc,omitempty"`
	At    taskgraph.Time   `json:"at,omitempty"`
	Task  taskgraph.TaskID `json:"task,omitempty"`
	Extra taskgraph.Time   `json:"extra,omitempty"`
}

func (f FaultSpec) fault() (faults.Fault, error) {
	switch f.Kind {
	case "proc-failure":
		return faults.Fault{Kind: faults.ProcFailure, Proc: platform.Proc(f.Proc), At: f.At}, nil
	case "exec-overrun":
		return faults.Fault{Kind: faults.ExecOverrun, Task: f.Task, Extra: f.Extra}, nil
	}
	return faults.Fault{}, fmt.Errorf("unknown fault kind %q", f.Kind)
}

// RecoverRequest replays a static schedule under a fault scenario and
// re-schedules what the faults destroyed (budgeted B&B with a guaranteed
// list fallback).
type RecoverRequest struct {
	GraphRequest
	Schedule []sched.Placement `json:"schedule"`
	Faults   []FaultSpec       `json:"faults"`
	BudgetMS int64             `json:"budget_ms,omitempty"`
	Workers  int               `json:"workers,omitempty"`
}

// RecoverResponse summarizes the recovery outcome.
type RecoverResponse struct {
	Recovered bool               `json:"recovered"` // false: nothing needed rescue
	Degraded  bool               `json:"degraded"`  // plan came from the list fallback
	PreLmax   taskgraph.Time     `json:"pre_lmax"`
	PostLmax  taskgraph.Time     `json:"post_lmax"`
	Misses    int                `json:"misses"`
	Stats     SearchStats        `json:"stats"` // zero when the B&B path did not run
	Merged    []rescue.Placement `json:"merged,omitempty"`
}

func recoverResponse(out *rescue.Outcome) RecoverResponse {
	resp := RecoverResponse{
		Recovered: out.Residual != nil,
		Degraded:  out.Degraded,
		PreLmax:   out.PreLmax,
		PostLmax:  out.PostLmax,
		Misses:    out.Misses,
		Merged:    out.Merged,
	}
	if out.BB != nil {
		resp.Stats = searchStats(out.BB.Stats)
	}
	return resp
}

// parseListPolicy maps the wire policy name; ok=false selects Best.
func parseListPolicy(name string) (listsched.Policy, bool, error) {
	switch name {
	case "", "best":
		return 0, false, nil
	case "hlfet":
		return listsched.HLFET, true, nil
	case "slack":
		return listsched.LeastSlack, true, nil
	case "edf":
		return listsched.EDF, true, nil
	}
	return 0, false, fmt.Errorf("unknown list policy %q", name)
}

// ErrorResponse is the uniform error body. Code and Field are present only
// for structured validation failures (malformed platform specs): Code
// classifies the violation and Field names the offending request field, so
// clients can attribute the 400 without parsing the message.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	Field string `json:"field,omitempty"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	UptimeMS int64  `json:"uptime_ms"`
}
