package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// placementsJSON is the byte-identity probe for a result's schedule.
func placementsJSON(t *testing.T, res core.Result) []byte {
	t.Helper()
	if res.Schedule == nil {
		return nil
	}
	raw, err := json.Marshal(res.Schedule.Placements())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// journaledConfig pins a single-worker deterministic fabric: one worker,
// one slice per lease, so the uninterrupted run and every resumed run
// process slices in the same FIFO order under the same incumbent bounds.
func journaledConfig(path string) Config {
	cfg := Config{
		FrontierTarget: 8,
		MaxLease:       1,
		LeaseTTL:       5 * time.Second,
		Heartbeat:      50 * time.Millisecond,
		RetryAfter:     2 * time.Millisecond,
		JournalPath:    path,
		NoSpeculation:  true,
	}
	return cfg
}

// TestJournalResumeByteIdentical is the crash-survivability acceptance
// invariant at unit scope: a journaled solve interrupted at EVERY record
// boundary (and at torn mid-record cuts) and resumed on a fresh
// coordinator must land on byte-identical cost, placements, and
// termination reason.
func TestJournalResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	g, plat := pinnedInstance(t, 4001)

	fleet := startFabric(t, journaledConfig(base), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	want, err := fleet.Solve(ctx, g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Optimal {
		t.Fatalf("baseline not optimal: %+v", want.Reason)
	}
	wantPls := placementsJSON(t, want)

	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	records, err := journal.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 3 {
		t.Fatalf("journal too small to truncate meaningfully: %d records", len(records))
	}

	// Crash points: after each record k (1..n-1 whole records survive),
	// plus a torn tail — half of record k+1 appended without newline.
	for k := 1; k < len(records); k++ {
		for _, torn := range []bool{false, true} {
			cut := filepath.Join(dir, "cut.jsonl")
			var buf []byte
			for _, rec := range records[:k] {
				buf = append(buf, rec...)
				buf = append(buf, '\n')
			}
			if torn {
				buf = append(buf, records[k][:len(records[k])/2]...)
			}
			if err := os.WriteFile(cut, buf, 0o644); err != nil {
				t.Fatal(err)
			}

			resumed := startFabric(t, journaledConfig(cut), 1)
			got, err := resumed.Resume(ctx)
			if err != nil {
				t.Fatalf("cut=%d torn=%v: %v", k, torn, err)
			}
			if got.Cost != want.Cost || got.Reason != want.Reason || got.Optimal != want.Optimal {
				t.Fatalf("cut=%d torn=%v: resumed (cost=%d reason=%v opt=%v) != baseline (cost=%d reason=%v opt=%v)",
					k, torn, got.Cost, got.Reason, got.Optimal, want.Cost, want.Reason, want.Optimal)
			}
			if gotPls := placementsJSON(t, got); string(gotPls) != string(wantPls) {
				t.Fatalf("cut=%d torn=%v: placements diverged:\n got %s\nwant %s", k, torn, gotPls, wantPls)
			}
		}
	}

	// The intact journal is terminal: Resume re-assembles without workers.
	full := filepath.Join(dir, "full.jsonl")
	if err := os.WriteFile(full, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	idle := NewFleet(journaledConfig(full))
	got, err := idle.Resume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Reason != want.Reason || string(placementsJSON(t, got)) != string(wantPls) {
		t.Fatalf("terminal resume diverged: (cost=%d reason=%v) != (cost=%d reason=%v)",
			got.Cost, got.Reason, want.Cost, want.Reason)
	}
}

// TestResumeRejectsCorruptJournal: a journal whose incumbent record
// cannot replay (tampered cost) must be rejected outright, never
// trusted as a bound.
func TestResumeRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	g, plat := pinnedInstance(t, 4001)

	fleet := startFabric(t, journaledConfig(base), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := fleet.Solve(ctx, g, plat, core.Params{}); err != nil {
		t.Fatal(err)
	}
	records, err := journal.Load(base)
	if err != nil {
		t.Fatal(err)
	}

	tampered := filepath.Join(dir, "tampered.jsonl")
	var buf []byte
	mutated := false
	for _, rec := range records {
		var ck CheckpointRecord
		if err := json.Unmarshal(rec, &ck); err != nil {
			t.Fatal(err)
		}
		if ck.Kind == checkpointKindIncumbent && !mutated {
			ck.Incumbent.Cost-- // claim a bound the placements cannot achieve
			mutated = true
			rec, err = json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
		}
		if ck.Kind == checkpointKindFinal {
			continue // keep the solve mid-flight so replay must trust records
		}
		buf = append(buf, rec...)
		buf = append(buf, '\n')
	}
	if !mutated {
		t.Skip("baseline journal has no incumbent record to tamper with")
	}
	if err := os.WriteFile(tampered, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	idle := NewFleet(journaledConfig(tampered))
	if _, err := idle.Resume(ctx); err == nil {
		t.Fatal("tampered incumbent record was accepted")
	}
}

// TestCancelResumable: canceling a journaled solve surfaces ErrResumable
// with the partial result, and Resume on the same journal finishes the
// solve with the sequential outcome.
func TestCancelResumable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	g, plat := pinnedInstance(t, 4002)
	seq, err := core.Solve(g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}

	// No workers: the solve parks with every slice pending until canceled.
	fleet := NewFleet(journaledConfig(path))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, err = fleet.Solve(ctx, g, plat, core.Params{})
	if !errors.Is(err, ErrResumable) {
		t.Fatalf("canceled journaled solve: got err %v, want ErrResumable", err)
	}

	resumed := startFabric(t, journaledConfig(path), 1)
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	got, err := resumed.Resume(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != seq.Cost || got.Optimal != seq.Optimal || got.Reason != seq.Reason {
		t.Fatalf("resumed (cost=%d opt=%v reason=%v) != sequential (cost=%d opt=%v reason=%v)",
			got.Cost, got.Optimal, got.Reason, seq.Cost, seq.Optimal, seq.Reason)
	}

	// Without a journal, cancel keeps the legacy non-resumable contract.
	plain := NewFleet(Config{FrontierTarget: 8})
	pctx, pcancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		pcancel()
	}()
	if _, err := plain.Solve(pctx, g, plat, core.Params{}); errors.Is(err, ErrResumable) {
		t.Fatal("unjournaled cancel must not claim resumability")
	}
}

// TestDrainHandsBackAndExits: draining a worker by name makes its Run
// return ErrDrained, re-queues what it held, and the survivor finishes
// the solve at the sequential cost.
func TestDrainHandsBackAndExits(t *testing.T) {
	cfg := testConfig()
	cfg.NoSpeculation = true
	fleet := NewFleet(cfg)
	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runErr := make(chan error, 2)
	var wg sync.WaitGroup
	for _, name := range []string{"stay", "leave"} {
		w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: name, Poll: 5 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			runErr <- w.Run(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()

	// Wait until both joined, then drain one by name.
	deadline := time.Now().Add(10 * time.Second)
	for fleet.WorkerCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drainer := NewWorker(WorkerConfig{Coordinator: srv.URL})
	var dr DrainResponse
	if err := drainer.post(ctx, "/dist/v1/drain", DrainRequest{Name: "leave"}, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Draining {
		t.Fatalf("drain not acknowledged: %+v", dr)
	}

	select {
	case err := <-runErr:
		if !errors.Is(err, ErrDrained) {
			t.Fatalf("drained worker returned %v, want ErrDrained", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker did not exit")
	}

	// The survivor still solves to the sequential cost.
	g, plat := pinnedInstance(t, 4004)
	seq, err := core.Solve(g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Solve(ctx, g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != seq.Cost || res.Optimal != seq.Optimal {
		t.Fatalf("post-drain solve (cost=%d opt=%v) != sequential (cost=%d opt=%v)",
			res.Cost, res.Optimal, seq.Cost, seq.Optimal)
	}
	snap := fleet.Snapshot()
	if snap.DrainsRequested != 1 || snap.WorkersDraining != 1 {
		t.Errorf("drain gauges: %+v", snap)
	}
}

// TestSpeculativeRedispatch: a worker that leases slices and then only
// heartbeats (never reports) is a straggler, not a corpse — its lease
// never expires. The service-time quantile trigger must speculatively
// re-dispatch its slices so the solve still finishes at the sequential
// cost, with first-report-wins keeping the accounting single-counted.
func TestSpeculativeRedispatch(t *testing.T) {
	cfg := testConfig()
	cfg.MaxLease = 3
	cfg.LeaseTTL = 60 * time.Second // eviction can never save this run
	cfg.Heartbeat = 20 * time.Millisecond
	cfg.StragglerMinSamples = 3
	cfg.StragglerQuantile = 0.5
	cfg.StragglerFactor = 2
	fleet := NewFleet(cfg)
	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	g, plat := pinnedInstance(t, 4003)
	seq, err := core.Solve(g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}

	type solveOut struct {
		res core.Result
		err error
	}
	out := make(chan solveOut, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		res, err := fleet.Solve(ctx, g, plat, core.Params{})
		out <- solveOut{res, err}
	}()

	// The straggler: leases a batch, then heartbeats forever without
	// solving. Steals drain its unstarted tail down to one slice; only
	// speculation can recover that last one.
	straggler := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "straggler", Poll: 5 * time.Millisecond})
	var join JoinResponse
	for {
		if err := straggler.post(ctx, "/dist/v1/join", JoinRequest{Name: "straggler"}, &join); err != nil {
			t.Fatal(err)
		}
		var lease LeaseResponse
		if err := straggler.post(ctx, "/dist/v1/lease", LeaseRequest{WorkerID: join.WorkerID, Max: 3}, &lease); err != nil {
			t.Fatal(err)
		}
		if !lease.None && len(lease.Slices) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go func() {
		for hbCtx.Err() == nil {
			var hb HeartbeatResponse
			_ = straggler.post(hbCtx, "/dist/v1/heartbeat", HeartbeatRequest{WorkerID: join.WorkerID}, &hb)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	honest := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "honest", Poll: 5 * time.Millisecond})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go func() { _ = honest.Run(wctx) }()

	got := <-out
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.res.Cost != seq.Cost || got.res.Optimal != seq.Optimal {
		t.Fatalf("speculated solve (cost=%d opt=%v) != sequential (cost=%d opt=%v)",
			got.res.Cost, got.res.Optimal, seq.Cost, seq.Optimal)
	}
	snap := fleet.Snapshot()
	if snap.SlicesSpeculated == 0 {
		t.Errorf("expected speculative re-dispatch, got %+v", snap)
	}
	if snap.WorkerEvictions != 0 {
		t.Errorf("eviction fired despite live heartbeats: %+v", snap)
	}
}

// TestFirstReportWinsDedup pins the single-counting invariant the
// speculation path generalizes: two reports for one slice — the second
// being what a straggler sends after a speculative re-dispatch already
// landed — yield exactly one acceptance, one duplicate, and stats folded
// once.
func TestFirstReportWinsDedup(t *testing.T) {
	cfg := testConfig()
	fleet := NewFleet(cfg)
	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	g, plat := pinnedInstance(t, 4001) // shards into slices (not locally exhausted)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out := make(chan error, 1)
	go func() {
		_, err := fleet.Solve(ctx, g, plat, core.Params{})
		out <- err
	}()

	// Lease one slice by hand, then report it twice from two "workers".
	// The solve must still be running while the lease loop waits: if it
	// returns first, its error is the failure, not a context timeout.
	poster := NewWorker(WorkerConfig{Coordinator: srv.URL})
	var join JoinResponse
	if err := poster.post(ctx, "/dist/v1/join", JoinRequest{Name: "dup"}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	for {
		lease = LeaseResponse{} // a None reply must not outlive its poll: grants omit "none"
		if err := poster.post(ctx, "/dist/v1/lease", LeaseRequest{WorkerID: join.WorkerID, Max: 1}, &lease); err != nil {
			t.Fatal(err)
		}
		if !lease.None && len(lease.Slices) > 0 {
			break
		}
		select {
		case err := <-out:
			t.Fatalf("fleet.Solve returned before a slice was leased: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	report := ReportRequest{
		WorkerID: join.WorkerID, SolveID: lease.SolveID, SliceID: lease.Slices[0].ID,
		Exhausted: true, Reason: "exhausted",
		Stats: WireStats{Generated: 7, Expanded: 7},
	}
	var first, second ReportResponse
	if err := poster.post(ctx, "/dist/v1/report", report, &first); err != nil {
		t.Fatal(err)
	}
	report.WorkerID++ // the straggler's late duplicate
	if err := poster.post(ctx, "/dist/v1/report", report, &second); err != nil {
		t.Fatal(err)
	}
	if !first.Accepted || second.Accepted {
		t.Fatalf("first-report-wins violated: first.Accepted=%v second.Accepted=%v", first.Accepted, second.Accepted)
	}
	if got := fleet.counters.Duplicates.Load(); got != 1 {
		t.Fatalf("duplicate counter = %d, want 1", got)
	}
	fleet.mu.Lock()
	var gen int64
	if fleet.cur != nil {
		gen = fleet.cur.stats.Generated
	}
	fleet.mu.Unlock()
	if gen != 7 {
		t.Fatalf("stats folded %d generated nodes, want exactly one fold (7)", gen)
	}

	cancel()
	if err := <-out; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
}
