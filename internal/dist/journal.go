package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// The durable frontier journal. With Config.JournalPath set, the
// coordinator checkpoints each solve to an append-only fsynced JSONL
// file (internal/journal): one solve record up front — canonical graph,
// original graph, permutation, frontier slices, post-expansion incumbent
// — then one incumbent record per adoption and one slice record per
// accepted report, and a final record when the solve ends. A restarted
// coordinator (or a standby pointed at the same file) calls Fleet.Resume
// to rebuild the activeSolve from the journal, re-lease the unfinished
// slices, and terminate with the identical cost and optimality proof.
//
// Two ordering rules make replay sound:
//
//   - Memory before journal: state under f.mu is mutated first, the
//     record is appended second. A crash between the two loses only the
//     record, so the journal is always a prefix of the truth — replay
//     re-dispatches at most the unrecorded slices, never skips one.
//   - Incumbent before slice: within one accepted report, the adoption
//     record is appended before the slice-done record. A slice may thus
//     be durably done only after every incumbent it produced is durable;
//     the converse order could mark a subtree exhausted while losing the
//     optimum it found.
//
// Records for incumbents are replay-validated on load exactly like live
// broadcasts (replayOK), so a corrupt or tampered journal cannot inject
// an unachievable bound.

// checkpointKind* name the journal record kinds on the wire.
const (
	checkpointKindSolve     = "solve"
	checkpointKindSlice     = "slice"
	checkpointKindIncumbent = "incumbent"
	checkpointKindFinal     = "final"
)

// CheckpointRecord is one line of the coordinator journal: exactly one
// of the payload fields is set, selected by Kind.
type CheckpointRecord struct {
	Kind      string               `json:"kind"`
	Solve     *SolveCheckpoint     `json:"solve,omitempty"`
	Slice     *SliceCheckpoint     `json:"slice,omitempty"`
	Incumbent *IncumbentCheckpoint `json:"incumbent,omitempty"`
	Final     *FinalCheckpoint     `json:"final,omitempty"`
}

// CheckpointSlice is one frontier slice at solve start: the placement
// prefix that roots the subtree and its lower bound (used to re-prune
// the queue against the replayed incumbent).
type CheckpointSlice struct {
	Prefix []sched.Placement `json:"prefix"`
	LB     int64             `json:"lb"`
}

// SolveCheckpoint is the first record of a journal: everything needed to
// reconstruct the activeSolve as it stood right after frontier
// expansion. Graph carries the canonical encoding workers solve against;
// Orig and Inv carry the requester's original graph and the
// canonical→original permutation so the resumed result is assembled (and
// re-verified) in the original numbering, exactly like a live solve.
type SolveCheckpoint struct {
	ID        uint64            `json:"id"`
	GraphKey  string            `json:"graph_key"` // sha256 of the canonical graph bytes
	Graph     []byte            `json:"graph"`
	Orig      []byte            `json:"orig"`
	Inv       []int             `json:"inv"`
	Procs     int               `json:"procs"`
	Params    ParamsSpec        `json:"params"`
	Best      int64             `json:"best"`
	BestSeq   []sched.Placement `json:"best_seq,omitempty"`
	Seed      []sched.Placement `json:"seed,omitempty"`
	Slices    []CheckpointSlice `json:"slices"`
	Expansion WireStats         `json:"expansion"`
}

// SliceCheckpoint records one accepted slice report: the slice is
// accounted for and its deterministic counters are folded in. Re-solving
// a slice that lacks this record is always sound (first-report-wins).
type SliceCheckpoint struct {
	SolveID   uint64    `json:"solve_id"`
	ID        int       `json:"id"`
	Exhausted bool      `json:"exhausted"`
	Reason    string    `json:"reason,omitempty"`
	Stats     WireStats `json:"stats"`
}

// IncumbentCheckpoint records one validated adoption: the new bound, its
// achieving placements, and the queued slices the bound eliminated.
type IncumbentCheckpoint struct {
	SolveID    uint64            `json:"solve_id"`
	Cost       int64             `json:"cost"`
	Placements []sched.Placement `json:"placements"`
	Pruned     []int             `json:"pruned,omitempty"`
}

// FinalCheckpoint closes a solve. Reason "canceled" is NOT terminal —
// it marks a resumable abort (Fleet.Solve interrupted by its context),
// and Resume continues past it; any other reason means the solve
// completed and Resume just re-assembles the recorded outcome.
type FinalCheckpoint struct {
	SolveID uint64 `json:"solve_id"`
	Reason  string `json:"reason"`
	Best    int64  `json:"best"`
}

// graphKey fingerprints the canonical graph bytes for the journal.
func graphKey(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// appendCheckpoint journals one record. Callers hold f.mu (Append is
// not concurrency-safe). A write failure disables further journaling
// for the solve — the live search is unaffected, only crash-resume
// fidelity is lost — and is logged loudly once.
func (f *Fleet) appendCheckpoint(s *activeSolve, rec CheckpointRecord) {
	if s.jr == nil {
		return
	}
	if err := s.jr.Append(rec); err != nil {
		f.logf("dist: JOURNAL WRITE FAILED, disabling checkpoints for solve %d: %v", s.id, err)
		_ = s.jr.Close()
		s.jr = nil
		return
	}
	f.journalBytes.Store(s.jr.Size())
}

// solveCheckpoint builds the opening record for s. Callers hold no lock
// (s is not yet published).
func solveCheckpoint(s *activeSolve, origRaw []byte) CheckpointRecord {
	ck := &SolveCheckpoint{
		ID:        s.id,
		GraphKey:  graphKey(s.graphRaw),
		Graph:     s.graphRaw,
		Orig:      origRaw,
		Procs:     s.plat.M,
		Params:    s.spec,
		Best:      int64(s.best),
		BestSeq:   s.bestSeq,
		Expansion: wireStats(s.expStats),
	}
	ck.Inv = make([]int, len(s.inv))
	for i, id := range s.inv {
		ck.Inv[i] = int(id)
	}
	if s.seed != nil {
		ck.Seed = s.seed.Placements()
	}
	ck.Slices = make([]CheckpointSlice, len(s.slices))
	for i, sl := range s.slices {
		ck.Slices[i] = CheckpointSlice{Prefix: sl.Prefix, LB: int64(sl.LB)}
	}
	return CheckpointRecord{Kind: checkpointKindSolve, Solve: ck}
}

// statsFromWire is the inverse of wireStats for the frontier expansion's
// counters: the expansion keeps no transposition table, and TimedOut is
// reconstructed from the final reason, not carried per record.
func statsFromWire(ws WireStats) core.Stats {
	return core.Stats{
		Generated:        ws.Generated,
		Expanded:         ws.Expanded,
		Goals:            ws.Goals,
		PrunedChildren:   ws.PrunedChildren,
		PrunedActive:     ws.PrunedActive,
		IncumbentUpdates: ws.IncumbentUpdates,
		MaxActiveSet:     ws.MaxActiveSet,
		Skipped:          ws.Skipped,
	}
}

// replayCheckpoint folds the journal records back into an activeSolve.
// It returns the rebuilt solve and the last final record seen (nil if
// the solve was mid-flight when the journal stopped). Incumbent records
// are re-validated by replay against the canonical graph — a journal
// that fails validation is corrupt and rejected outright.
func replayCheckpoint(records [][]byte) (*activeSolve, *FinalCheckpoint, error) {
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("dist: journal holds no records: nothing to resume")
	}
	var first CheckpointRecord
	if err := json.Unmarshal(records[0], &first); err != nil {
		return nil, nil, fmt.Errorf("dist: journal record 0: %w", err)
	}
	if first.Kind != checkpointKindSolve || first.Solve == nil {
		return nil, nil, fmt.Errorf("dist: journal does not start with a solve record (kind %q)", first.Kind)
	}
	ck := first.Solve

	canon := new(taskgraph.Graph)
	if err := json.Unmarshal(ck.Graph, canon); err != nil {
		return nil, nil, fmt.Errorf("dist: journaled canonical graph: %w", err)
	}
	if _, err := canon.TopoOrder(); err != nil {
		return nil, nil, fmt.Errorf("dist: journaled canonical graph: %w", err)
	}
	if got := graphKey(ck.Graph); got != ck.GraphKey {
		return nil, nil, fmt.Errorf("dist: journal graph key mismatch: recorded %s, computed %s", ck.GraphKey, got)
	}
	orig := new(taskgraph.Graph)
	if err := json.Unmarshal(ck.Orig, orig); err != nil {
		return nil, nil, fmt.Errorf("dist: journaled original graph: %w", err)
	}
	if len(ck.Inv) != canon.NumTasks() || orig.NumTasks() != canon.NumTasks() {
		return nil, nil, fmt.Errorf("dist: journaled permutation/graph size mismatch")
	}
	p, err := ck.Params.Params()
	if err != nil {
		return nil, nil, err
	}
	plat := platform.New(ck.Procs)
	if err := plat.Validate(); err != nil {
		return nil, nil, err
	}

	s := &activeSolve{
		id: ck.ID, graphRaw: ck.Graph, g: canon, origG: orig,
		plat: plat, p: p, spec: ck.Params,
		best:     taskgraph.Time(ck.Best),
		bestSeq:  ck.BestSeq,
		expStats: statsFromWire(ck.Expansion),
		owned:    map[int64][]int{},
		done:     make(chan struct{}),
	}
	s.inv = make([]taskgraph.TaskID, len(ck.Inv))
	for i, id := range ck.Inv {
		s.inv[i] = taskgraph.TaskID(id)
	}
	if len(ck.Seed) > 0 {
		seed := sched.NewSchedule(canon, plat)
		for _, pl := range ck.Seed {
			seed.Set(pl.Task, pl.Proc, pl.Start)
		}
		if !seed.Complete() {
			return nil, nil, fmt.Errorf("dist: journaled seed schedule incomplete")
		}
		s.seed = seed
	}
	s.slices = make([]core.FrontierSlice, len(ck.Slices))
	for i, w := range ck.Slices {
		s.slices[i] = core.FrontierSlice{Prefix: w.Prefix, LB: taskgraph.Time(w.LB)}
	}
	s.status = make([]sliceStatus, len(s.slices))
	s.dispatched = make([]time.Time, len(s.slices))
	s.speculated = make([]bool, len(s.slices))
	s.pending = len(s.slices)
	if s.bestSeq != nil && !replayOK(canon, plat, s.bestSeq, s.best) {
		return nil, nil, fmt.Errorf("dist: journaled expansion incumbent fails replay")
	}

	var final *FinalCheckpoint
	for i, raw := range records[1:] {
		var rec CheckpointRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, fmt.Errorf("dist: journal record %d: %w", i+1, err)
		}
		switch rec.Kind {
		case checkpointKindIncumbent:
			in := rec.Incumbent
			if in == nil || in.SolveID != s.id {
				return nil, nil, fmt.Errorf("dist: journal record %d: malformed incumbent", i+1)
			}
			cost := taskgraph.Time(in.Cost)
			if cost < s.best {
				if len(in.Placements) != canon.NumTasks() || !replayOK(canon, plat, in.Placements, cost) {
					return nil, nil, fmt.Errorf("dist: journal record %d: incumbent %d fails replay validation", i+1, in.Cost)
				}
				s.best = cost
				s.bestSeq = in.Placements
				s.stats.IncumbentUpdates++
			}
			for _, sl := range in.Pruned {
				if sl < 0 || sl >= len(s.slices) {
					return nil, nil, fmt.Errorf("dist: journal record %d: pruned slice %d out of range", i+1, sl)
				}
				if s.status[sl] != sliceDone {
					s.status[sl] = sliceDone
					s.pending--
					s.stats.PrunedActive++
				}
			}
		case checkpointKindSlice:
			sc := rec.Slice
			if sc == nil || sc.SolveID != s.id || sc.ID < 0 || sc.ID >= len(s.slices) {
				return nil, nil, fmt.Errorf("dist: journal record %d: malformed slice", i+1)
			}
			s.foldSlice(sc) // idempotent: a re-dispatch may have journaled it already
		case checkpointKindFinal:
			if rec.Final == nil || rec.Final.SolveID != s.id {
				return nil, nil, fmt.Errorf("dist: journal record %d: malformed final", i+1)
			}
			final = rec.Final
		case checkpointKindSolve:
			return nil, nil, fmt.Errorf("dist: journal record %d: second solve record", i+1)
		default:
			return nil, nil, fmt.Errorf("dist: journal record %d: unknown kind %q", i+1, rec.Kind)
		}
	}

	// Everything not yet accounted for goes back on the dispatch queue,
	// pre-pruned against the replayed incumbent (mirrors adoptValidated).
	limit := core.PruneLimit(s.best, s.p.BR)
	for sl := range s.slices {
		if s.status[sl] == sliceDone {
			continue
		}
		if s.slices[sl].LB >= limit {
			s.status[sl] = sliceDone
			s.pending--
			s.stats.PrunedActive++
			continue
		}
		s.status[sl] = sliceQueued
		s.queue = append(s.queue, sl)
	}
	return s, final, nil
}

// Resume rebuilds the solve journaled at Config.JournalPath and runs it
// to completion: slices already accounted for stay done, unfinished ones
// are re-leased to whatever workers join, and the result carries the
// identical cost and optimality proof the uninterrupted run would have
// produced. A journal whose final record is terminal (the solve had
// already completed) just re-assembles that outcome. Like Solve, Resume
// blocks until the solve ends and serializes with other solves.
func (f *Fleet) Resume(ctx context.Context) (core.Result, error) {
	f.solveMu.Lock()
	defer f.solveMu.Unlock()

	if f.cfg.JournalPath == "" {
		return core.Result{}, fmt.Errorf("dist: Resume requires Config.JournalPath")
	}
	records, err := journal.Load(f.cfg.JournalPath)
	if err != nil {
		return core.Result{}, err
	}
	if records == nil {
		return core.Result{}, fmt.Errorf("dist: no journal at %s: nothing to resume", f.cfg.JournalPath)
	}
	s, final, err := replayCheckpoint(records)
	if err != nil {
		return core.Result{}, err
	}
	f.counters.Solves.Add(1)

	if final != nil && final.Reason != "canceled" {
		// The journaled solve already terminated; re-assemble its outcome
		// without re-opening the journal or touching the fleet.
		reason, err := reasonFromString(final.Reason)
		if err != nil {
			return core.Result{}, err
		}
		stats := foldStats(s, reason)
		f.logf("dist: resume: solve %d already terminal (%s), re-assembling", s.id, final.Reason)
		return f.assemble(s.origG, s.plat, s.p, stats, s.best, s.bestSeq, s.seed, s.inv, reason)
	}

	jr, err := journal.OpenAppend(f.cfg.JournalPath, true)
	if err != nil {
		return core.Result{}, err
	}
	s.jr = jr
	f.journalBytes.Store(jr.Size())
	f.logf("dist: resume: solve %d from journal %s: %d/%d slices pending, incumbent %d",
		s.id, f.cfg.JournalPath, s.pending, len(s.slices), s.best)
	return f.run(ctx, s)
}

// reasonFromString is the inverse of reasonString for journaled finals.
func reasonFromString(r string) (core.TermReason, error) {
	switch r {
	case "exhausted":
		return core.TermExhausted, nil
	case "timeout":
		return core.TermTimeLimit, nil
	case "canceled":
		return core.TermCanceled, nil
	case "loss":
		return core.TermResourceLoss, nil
	case "bound":
		return core.TermGlobalBound, nil
	case "panic":
		return core.TermPanic, nil
	}
	return 0, fmt.Errorf("dist: unknown journaled termination reason %q", r)
}
