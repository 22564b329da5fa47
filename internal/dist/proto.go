// Package dist is the distributed branch-and-bound fabric: a coordinator
// that shards one search into self-contained frontier slices
// (core.EnumerateFrontier), a JSON/HTTP wire protocol for shipping slices
// to workers, and a worker client that solves slices with the sequential
// kernel under a shared incumbent (core.IncumbentLink).
//
// Soundness rests on three invariants, argued in DESIGN.md:
//
//   - Frontier split: the coordinator's expansion plus the slice subtrees
//     partition the sequential search tree exactly, so solving every slice
//     and folding the results reproduces the sequential cost.
//   - Incumbent broadcast: only validated, achievable schedules become the
//     shared bound, so pruning against it can never remove the optimum.
//   - Accounting: a slice counts toward the optimality proof only when
//     some worker exhausted it (or the validated incumbent pruned it);
//     duplicated reports from slow workers are deduplicated first-wins.
package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// ParamsSpec names the search rules on the wire by core.Params.ParseRules's
// names, shared with cmd/bbsched and the bbserved solve endpoint: select ∈
// {lifo, llb, fifo}, branch ∈ {bfn, df, bf1}, bound ∈ {lb1, lb0, none};
// empty strings pick the paper's recommended defaults.
type ParamsSpec struct {
	Select string  `json:"select,omitempty"`
	Branch string  `json:"branch,omitempty"`
	Bound  string  `json:"bound,omitempty"`
	BR     float64 `json:"br,omitempty"`

	// DuplicateFree ships core.Params.DuplicateFree: the frontier is a
	// set of paths of the duplicate-free tree, and each slice solve
	// searches its part of that tree.
	DuplicateFree bool `json:"duplicate_free,omitempty"`
}

// Params decodes the wire names into solver parameters.
func (s ParamsSpec) Params() (core.Params, error) {
	var p core.Params
	if err := p.ParseRules(s.Select, s.Branch, s.Bound); err != nil {
		return p, fmt.Errorf("dist: %w", err)
	}
	if s.BR < 0 || s.BR >= 1 {
		return p, fmt.Errorf("dist: BR %v outside [0,1)", s.BR)
	}
	p.BR = s.BR
	p.DuplicateFree = s.DuplicateFree
	return p, nil
}

// SpecFromParams encodes solver parameters into their wire names. Only
// the fields a worker needs travel; everything else must be zero (the
// coordinator validates before splitting).
func SpecFromParams(p core.Params) (ParamsSpec, error) {
	var s ParamsSpec
	var err error
	if s.Select, s.Branch, s.Bound, err = p.RuleNames(); err != nil {
		return s, fmt.Errorf("dist: %w", err)
	}
	s.BR = p.BR
	s.DuplicateFree = p.DuplicateFree
	return s, nil
}

// WireSlice is one frontier slice on the wire. IDs index the
// coordinator's slice table and are unique within a solve.
type WireSlice struct {
	ID     int               `json:"id"`
	Prefix []sched.Placement `json:"prefix"`
}

// WireStats carries the deterministic search-effort counters of one slice
// solve back to the coordinator (wall-clock fields deliberately omitted).
type WireStats struct {
	Generated        int64 `json:"generated"`
	Expanded         int64 `json:"expanded"`
	Goals            int64 `json:"goals"`
	PrunedChildren   int64 `json:"pruned_children"`
	PrunedActive     int64 `json:"pruned_active"`
	IncumbentUpdates int   `json:"incumbent_updates"`
	MaxActiveSet     int   `json:"max_active_set"`

	// Skipped counts the children duplicate-free generation dropped.
	Skipped int64 `json:"skipped,omitempty"`
}

func wireStats(st core.Stats) WireStats {
	return WireStats{
		Generated:        st.Generated,
		Expanded:         st.Expanded,
		Goals:            st.Goals,
		PrunedChildren:   st.PrunedChildren,
		PrunedActive:     st.PrunedActive,
		IncumbentUpdates: st.IncumbentUpdates,
		MaxActiveSet:     st.MaxActiveSet,
		Skipped:          st.Skipped,
	}
}

// JoinRequest registers a worker with the coordinator. WorkerID is zero
// on first join; a worker rejoining (e.g. after a coordinator restart
// against its journal) carries its old identity so ownership and load
// accounting survive.
type JoinRequest struct {
	Name     string `json:"name,omitempty"`
	WorkerID int64  `json:"worker_id,omitempty"`
}

// JoinResponse assigns the worker its identity and the fabric's timing
// contract: miss heartbeats for longer than lease_ttl_ms and the
// coordinator evicts you and re-dispatches your slices. ActiveSolve
// names the solve in flight (0 = idle) so a joiner knows it will be
// re-sharding live work; Draining tells a rejoining worker it was
// already marked for drain.
type JoinResponse struct {
	WorkerID    int64  `json:"worker_id"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	ActiveSolve uint64 `json:"active_solve,omitempty"`
	Draining    bool   `json:"draining,omitempty"`
}

// LeaseRequest asks for work. HaveSolve names the solve whose graph the
// worker already holds, so the (identical) graph bytes are not re-sent on
// every lease of one solve.
type LeaseRequest struct {
	WorkerID  int64  `json:"worker_id"`
	Name      string `json:"name,omitempty"` // re-registers after coordinator restart
	HaveSolve uint64 `json:"have_solve,omitempty"`
	Max       int    `json:"max,omitempty"` // max slices to grant (0 = coordinator default)
}

// LeaseResponse grants zero or more slices of the active solve. None
// means there is nothing to do right now; poll again after RetryMS.
// Graph is the canonical graph encoding, present only when SolveID
// differs from the request's HaveSolve. Drain means this worker gets no
// more work: finish up, release, exit.
type LeaseResponse struct {
	None      bool        `json:"none,omitempty"`
	Drain     bool        `json:"drain,omitempty"`
	RetryMS   int64       `json:"retry_ms,omitempty"`
	SolveID   uint64      `json:"solve_id,omitempty"`
	Graph     []byte      `json:"graph,omitempty"`
	Procs     int         `json:"procs,omitempty"`
	Params    ParamsSpec  `json:"params,omitempty"`
	Incumbent int64       `json:"incumbent"`
	Slices    []WireSlice `json:"slices,omitempty"`
}

// ReportRequest returns the outcome of one slice solve. Cost/Placements
// carry the best schedule the slice found (canonical numbering) when it
// improved on the incumbent the worker last saw — the synchronous backstop
// for the asynchronous incumbent channel, so a lost broadcast can never
// lose the optimum.
type ReportRequest struct {
	WorkerID   int64             `json:"worker_id"`
	SolveID    uint64            `json:"solve_id"`
	SliceID    int               `json:"slice_id"`
	Exhausted  bool              `json:"exhausted"`
	Reason     string            `json:"reason"`
	Cost       int64             `json:"cost,omitempty"`
	Placements []sched.Placement `json:"placements,omitempty"`
	Stats      WireStats         `json:"stats"`
}

// ReportResponse acknowledges a slice report. Accepted is false when the
// slice was already accounted for (a faster worker or a re-dispatch beat
// this report); the work is then discarded so Stats never double-count.
type ReportResponse struct {
	Accepted  bool  `json:"accepted"`
	Incumbent int64 `json:"incumbent"`
	Abandon   bool  `json:"abandon,omitempty"`
	Drain     bool  `json:"drain,omitempty"`
}

// IncumbentRequest publishes an improvement mid-slice. The coordinator
// validates the schedule by replay before adopting it.
type IncumbentRequest struct {
	WorkerID   int64             `json:"worker_id"`
	SolveID    uint64            `json:"solve_id"`
	Cost       int64             `json:"cost"`
	Placements []sched.Placement `json:"placements"`
}

// IncumbentResponse returns the globally best incumbent, which may be
// better than the one just published.
type IncumbentResponse struct {
	Incumbent int64 `json:"incumbent"`
}

// HeartbeatRequest keeps a worker's lease alive while it grinds through a
// long slice, and doubles as the incumbent poll.
type HeartbeatRequest struct {
	WorkerID int64  `json:"worker_id"`
	SolveID  uint64 `json:"solve_id,omitempty"`
}

// HeartbeatResponse carries the freshest incumbent back. Abandon tells
// the worker its solve is gone (finished or canceled): drop the leased
// slices and lease anew. Drain tells it to wind down after the current
// slice.
type HeartbeatResponse struct {
	Incumbent int64 `json:"incumbent"`
	Abandon   bool  `json:"abandon,omitempty"`
	Drain     bool  `json:"drain,omitempty"`
}

// DrainRequest asks the coordinator to drain one worker, addressed by ID
// or (when ID is zero) by name. Draining is sticky: the worker gets no
// further leases, finishes its in-flight slice, releases the rest, and
// exits with ErrDrained.
type DrainRequest struct {
	WorkerID int64  `json:"worker_id,omitempty"`
	Name     string `json:"name,omitempty"`
}

// DrainResponse confirms the drain and reports how many slices the
// worker still holds (they come back via /dist/v1/release or its final
// reports).
type DrainResponse struct {
	WorkerID int64 `json:"worker_id"`
	Draining bool  `json:"draining"`
	Owned    int   `json:"owned"`
}

// ReleaseRequest hands unstarted leased slices back to the coordinator —
// the voluntary counterpart of lease-TTL eviction, used by draining or
// terminating workers so their slices re-queue immediately.
type ReleaseRequest struct {
	WorkerID int64  `json:"worker_id"`
	SolveID  uint64 `json:"solve_id"`
	Slices   []int  `json:"slices"`
}

// ReleaseResponse reports how many of the slices actually re-queued
// (already-reported or stolen slices are skipped).
type ReleaseResponse struct {
	Requeued int `json:"requeued"`
}

// The error envelope lives in internal/peer (peer.ErrorResponse); both
// the fabric and the serving grid speak it.
