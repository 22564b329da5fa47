package dist

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// pinnedInstance reproduces the fuzzcheck kernel campaign's instance
// recipe so the distributed equivalence runs over the same pinned suite.
func pinnedInstance(t testing.TB, seed int64) (*taskgraph.Graph, platform.Platform) {
	t.Helper()
	gp := gen.Defaults()
	gp.NMin, gp.NMax = 5, 10
	gp.DepthMin, gp.DepthMax = 2, 5
	gp.CCR = float64(seed%4) / 2.0
	g := gen.New(gp, seed).Graph()
	laxity := 0.8 + float64(seed%5)*0.25
	pol := deadline.EqualSlack
	if seed%2 == 1 {
		pol = deadline.Proportional
	}
	if err := deadline.Assign(g, laxity, pol); err != nil {
		t.Fatal(err)
	}
	return g, platform.New(1 + int(seed)%3)
}

// startFabric boots a coordinator on real loopback HTTP plus n in-process
// workers, torn down with the test.
func startFabric(t testing.TB, cfg Config, n int) *Fleet {
	t.Helper()
	fleet := NewFleet(cfg)
	srv := httptest.NewServer(fleet.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			Coordinator: srv.URL,
			Name:        "w",
			Poll:        5 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
	})
	return fleet
}

func testConfig() Config {
	// placeholder
	return Config{
		FrontierTarget: 8,
		MaxLease:       2,
		LeaseTTL:       5 * time.Second,
		Heartbeat:      100 * time.Millisecond,
		RetryAfter:     5 * time.Millisecond,
	}
}

// TestDistributedMatchesSequential is the acceptance invariant: with 1, 2
// and 4 workers the distributed solve must return bit-identical
// Cost/Optimal/Guarantee/Reason to single-node core.Solve across the pinned
// suite, for exact and inexact branching rules alike. The reference solve
// runs on the canonical relabeling, because that is the graph the fleet
// searches and an inexact rule such as BranchDF can answer differently
// under another task numbering. Exact rules must also reach the cost
// core.Solve finds on the original numbering.
func TestDistributedMatchesSequential(t *testing.T) {
	combos := []core.Params{
		{},
		{Bound: core.BoundLB0},
		{Selection: core.SelectLLB},
		{Branching: core.BranchDF},
	}
	for _, workers := range []int{1, 2, 4} {
		fleet := startFabric(t, testConfig(), workers)
		for i := 0; i < 6; i++ {
			seed := 4000 + int64(i)
			g, plat := pinnedInstance(t, seed)
			canon, _, err := g.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			for ci, p := range combos {
				seq, err := core.Solve(canon, plat, p)
				if err != nil {
					t.Fatal(err)
				}
				if p.Branching.Exact() {
					orig, err := core.Solve(g, plat, p)
					if err != nil {
						t.Fatal(err)
					}
					if orig.Cost != seq.Cost {
						t.Fatalf("seed=%d combo=%d: exact cost %d on the original numbering, %d on the canonical one",
							seed, ci, orig.Cost, seq.Cost)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				res, err := fleet.Solve(ctx, g, plat, p)
				cancel()
				if err != nil {
					t.Fatalf("workers=%d seed=%d combo=%d: %v", workers, seed, ci, err)
				}
				if res.Cost != seq.Cost || res.Optimal != seq.Optimal || res.Guarantee != seq.Guarantee {
					t.Fatalf("workers=%d seed=%d combo=%d: dist (cost=%d opt=%v guar=%v) != seq (cost=%d opt=%v guar=%v)",
						workers, seed, ci, res.Cost, res.Optimal, res.Guarantee, seq.Cost, seq.Optimal, seq.Guarantee)
				}
				if res.Reason != seq.Reason {
					t.Fatalf("workers=%d seed=%d combo=%d: reason %v != %v", workers, seed, ci, res.Reason, seq.Reason)
				}
				if res.Schedule != nil {
					if err := res.Schedule.Check(); err != nil {
						t.Fatalf("workers=%d seed=%d combo=%d: merged schedule invalid: %v", workers, seed, ci, err)
					}
				}
			}
		}
	}
}

// TestStealAndEvict forces both robustness paths in one run: a registered
// worker leases the whole frontier, heartbeats briefly (so steals happen
// while it holds the batch), then goes silent so eviction re-dispatches
// what is left. The solve must still land on the sequential cost.
func TestStealAndEvict(t *testing.T) {
	cfg := testConfig()
	cfg.MaxLease = 64
	cfg.LeaseTTL = 400 * time.Millisecond
	cfg.Heartbeat = 50 * time.Millisecond
	cfg.NoSpeculation = true // this test targets the eviction path; speculation would beat the TTL
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

	// The hoarder: joins, grabs every slice in one lease, heartbeats for
	// half a second without solving anything, then vanishes.
	hoarder := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "hoarder", Poll: 5 * time.Millisecond})
	var join JoinResponse
	for { // the solve may not be installed yet
		if err := hoarder.post(ctx, "/dist/v1/join", JoinRequest{Name: "hoarder"}, &join); err != nil {
			t.Fatal(err)
		}
		var lease LeaseResponse
		if err := hoarder.post(ctx, "/dist/v1/lease", LeaseRequest{WorkerID: join.WorkerID, Max: 64}, &lease); err != nil {
			t.Fatal(err)
		}
		if !lease.None && len(lease.Slices) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	go func() {
		for time.Now().Before(deadline) {
			var hb HeartbeatResponse
			_ = hoarder.post(ctx, "/dist/v1/heartbeat", HeartbeatRequest{WorkerID: join.WorkerID}, &hb)
			time.Sleep(50 * time.Millisecond)
		}
	}()

	// The honest worker has nothing to lease — it must steal.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	honest := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "honest", Poll: 5 * time.Millisecond})
	go func() { _ = honest.Run(wctx) }()

	got := <-out
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.res.Cost != seq.Cost || got.res.Optimal != seq.Optimal {
		t.Fatalf("recovered solve (cost=%d opt=%v) != sequential (cost=%d opt=%v)",
			got.res.Cost, got.res.Optimal, seq.Cost, seq.Optimal)
	}
	snap := fleet.Snapshot()
	if snap.SlicesStolen == 0 {
		t.Error("expected at least one stolen slice")
	}
	if snap.WorkerEvictions == 0 || snap.SlicesRedispatched == 0 {
		t.Errorf("expected eviction + re-dispatch, got %+v", snap)
	}
}

// TestFrontierExhaustedLocally: a trivial instance whose whole tree fits
// in the coordinator expansion must solve with zero workers.
func TestFrontierExhaustedLocally(t *testing.T) {
	g := taskgraph.Diamond()
	plat := platform.New(2)
	fleet := NewFleet(Config{FrontierTarget: 1 << 20})
	seq, err := core.Solve(g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Solve(context.Background(), g, plat, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != seq.Cost || res.Optimal != seq.Optimal {
		t.Fatalf("local exhaustion (cost=%d opt=%v) != sequential (cost=%d opt=%v)",
			res.Cost, res.Optimal, seq.Cost, seq.Optimal)
	}
}

func TestRejectsNonDistributable(t *testing.T) {
	g := taskgraph.Diamond()
	plat := platform.New(2)
	fleet := NewFleet(Config{})
	bad := []core.Params{
		{Dominance: true},
		{Resources: core.ResourceBounds{MaxActiveSet: 8}},
		{Observer: func(core.Event) {}},
		{ChildOrder: core.ChildrenAsGenerated},
		{LLBTie: core.TieDeepest},
		{ReferenceKernel: true},
	}
	for i, p := range bad {
		if _, err := fleet.Solve(context.Background(), g, plat, p); err == nil {
			t.Errorf("combo %d: expected rejection", i)
		}
	}
	// Dedup's rejection points at the knob that replaces it on the fleet.
	if _, err := fleet.Solve(context.Background(), g, plat, core.Params{Dedup: true}); err == nil || !strings.Contains(err.Error(), "DuplicateFree") {
		t.Errorf("Dedup: got %v, want an error naming DuplicateFree", err)
	}
}

// TestDistributedDuplicateFreeMatchesSequential: with 1, 2 and 4 workers
// the fleet under DuplicateFree searches the duplicate-free tree — a
// frontier of its paths, each slice solved with the knob — and returns the
// Cost/Optimal/Guarantee/Reason of core.Solve with the knob on the
// canonical graph, for an exact and an inexact branching rule over the
// pinned suite, and it counts the children it skipped.
func TestDistributedDuplicateFreeMatchesSequential(t *testing.T) {
	combos := []core.Params{
		{DuplicateFree: true},
		{Branching: core.BranchDF, DuplicateFree: true},
	}
	for _, workers := range []int{1, 2, 4} {
		fleet := startFabric(t, testConfig(), workers)
		for i := 0; i < 6; i++ {
			seed := 4000 + int64(i)
			g, plat := pinnedInstance(t, seed)
			canon, _, err := g.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			for ci, p := range combos {
				seq, err := core.Solve(canon, plat, p)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				res, err := fleet.Solve(ctx, g, plat, p)
				cancel()
				if err != nil {
					t.Fatalf("workers=%d seed=%d combo=%d: %v", workers, seed, ci, err)
				}
				if res.Cost != seq.Cost || res.Optimal != seq.Optimal || res.Guarantee != seq.Guarantee || res.Reason != seq.Reason {
					t.Fatalf("workers=%d seed=%d combo=%d: dist (cost=%d opt=%v guar=%v %v) != seq (cost=%d opt=%v guar=%v %v)",
						workers, seed, ci, res.Cost, res.Optimal, res.Guarantee, res.Reason,
						seq.Cost, seq.Optimal, seq.Guarantee, seq.Reason)
				}
				if plat.M > 1 && res.Stats.Skipped == 0 {
					t.Errorf("workers=%d seed=%d combo=%d: the fleet skipped no child on %d processors", workers, seed, ci, plat.M)
				}
			}
		}
	}
}

// TestSpecRoundTrip: every distributable rule combination must survive
// the wire encoding unchanged, the duplicate-free knob included.
func TestSpecRoundTrip(t *testing.T) {
	for _, sel := range []core.SelectionRule{core.SelectLIFO, core.SelectLLB, core.SelectFIFO} {
		for _, br := range []core.BranchingRule{core.BranchBFn, core.BranchDF, core.BranchBF1} {
			for _, bnd := range []core.BoundFunc{core.BoundLB1, core.BoundLB0, core.BoundNone} {
				p := core.Params{Selection: sel, Branching: br, Bound: bnd, BR: 0.125, DuplicateFree: sel == core.SelectLLB}
				spec, err := SpecFromParams(p)
				if err != nil {
					t.Fatal(err)
				}
				back, err := spec.Params()
				if err != nil {
					t.Fatal(err)
				}
				if back.Selection != p.Selection || back.Branching != p.Branching ||
					back.Bound != p.Bound || back.BR != p.BR || back.DuplicateFree != p.DuplicateFree {
					t.Fatalf("round trip changed params: %+v -> %+v", p, back)
				}
			}
		}
	}
}

// TestSpecRejectsUnnamedRule: a rule value outside the named range has no
// wire name, so it cannot be shipped to the workers.
func TestSpecRejectsUnnamedRule(t *testing.T) {
	for _, p := range []core.Params{
		{Selection: core.SelectionRule(3)},
		{Branching: core.BranchingRule(3)},
		{Bound: core.BoundFunc(-1)},
	} {
		if spec, err := SpecFromParams(p); err == nil {
			t.Errorf("encoded %+v as %+v", p, spec)
		}
	}
}
