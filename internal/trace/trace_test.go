package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

func tracedSolve(t *testing.T, g *taskgraph.Graph, m int, cap int) (*Recorder, core.Result) {
	t.Helper()
	rec := NewRecorder(cap)
	res, err := core.Solve(g, platform.New(m), core.Params{Observer: rec.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestRecorderCountsMatchSolverStats(t *testing.T) {
	p := gen.Defaults()
	p.NMin, p.NMax = 6, 8
	p.DepthMin, p.DepthMax = 3, 4
	gg := gen.New(p, 5)
	for i := 0; i < 10; i++ {
		g := gg.Graph()
		if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		rec, res := tracedSolve(t, g, 2, 0)
		if got := rec.Count(core.EventExpand); got != res.Stats.Expanded {
			t.Fatalf("graph %d: expand events %d != stats %d", i, got, res.Stats.Expanded)
		}
		if got := rec.Count(core.EventGoal); got != res.Stats.Goals {
			t.Fatalf("graph %d: goal events %d != stats %d", i, got, res.Stats.Goals)
		}
		if got := rec.Count(core.EventPrune); got != res.Stats.PrunedChildren {
			t.Fatalf("graph %d: prune events %d != stats %d", i, got, res.Stats.PrunedChildren)
		}
		if got := rec.Count(core.EventIncumbent); got != int64(res.Stats.IncumbentUpdates) {
			t.Fatalf("graph %d: incumbent events %d != stats %d", i, got, res.Stats.IncumbentUpdates)
		}
		gen := rec.Count(core.EventGenerate) + rec.Count(core.EventPrune) +
			rec.Count(core.EventDominated) + rec.Count(core.EventGoal)
		if gen != res.Stats.Generated {
			t.Fatalf("graph %d: generate+prune+goal %d != stats.Generated %d", i, gen, res.Stats.Generated)
		}
	}
}

// TestRecorderCountsEveryKind feeds k+1 events of every kind k and reads
// them back: the counter array must cover the whole EventKind enum.
func TestRecorderCountsEveryKind(t *testing.T) {
	rec := NewRecorder(0)
	obs := rec.Observer()
	for k := core.EventKind(0); k < core.NumEventKinds; k++ {
		for i := 0; i <= int(k); i++ {
			obs(core.Event{Kind: k})
		}
	}
	for k := core.EventKind(0); k < core.NumEventKinds; k++ {
		if got := rec.Count(k); got != int64(k)+1 {
			t.Errorf("Count(%v) = %d, want %d", k, got, int64(k)+1)
		}
	}
	if rec.Truncated() {
		t.Error("an uncapped recorder reports truncation")
	}
}

// TestRecorderCountsDuplicates checks the duplicate-detection events
// against the solver's own counter on wide graphs, where dedup prunes.
func TestRecorderCountsDuplicates(t *testing.T) {
	p := gen.Defaults()
	p.NMin, p.NMax = 9, 9
	p.DepthMin, p.DepthMax = 3, 4
	gg := gen.New(p, 101)
	var total int64
	for i := 0; i < 3; i++ {
		g := gg.Graph()
		if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(1)
		res, err := core.Solve(g, platform.New(3), core.Params{Dedup: true, Observer: rec.Observer()})
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Count(core.EventDuplicate); got != res.Stats.DedupPruned {
			t.Fatalf("graph %d: duplicate events %d != stats %d", i, got, res.Stats.DedupPruned)
		}
		total += res.Stats.DedupPruned
	}
	if total == 0 {
		t.Fatal("no duplicates pruned: the workload does not exercise dedup")
	}
}

func TestRecorderCap(t *testing.T) {
	g := taskgraph.ForkJoin(4, 5, 2)
	rec, res := tracedSolve(t, g, 2, 10)
	if len(rec.Events) != 10 {
		t.Fatalf("retained %d events, cap 10", len(rec.Events))
	}
	if !rec.Truncated() {
		t.Fatal("cap hit but Truncated() false")
	}
	if rec.Count(core.EventExpand) != res.Stats.Expanded {
		t.Fatal("counters must keep counting past the cap")
	}
}

func TestProfileShape(t *testing.T) {
	g := taskgraph.Diamond()
	rec, _ := tracedSolve(t, g, 2, 0)
	prof := rec.Profile()
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	// The root expansion happens at level 0; goals at level 4.
	if prof[0].Level != 0 || prof[0].Expanded == 0 {
		t.Fatalf("level-0 profile wrong: %+v", prof[0])
	}
	last := prof[len(prof)-1]
	if last.Level != g.NumTasks() || last.Goals == 0 {
		t.Fatalf("goal level profile wrong: %+v", last)
	}
	for i := 1; i < len(prof); i++ {
		if prof[i].Level <= prof[i-1].Level {
			t.Fatal("profile not sorted by level")
		}
	}
}

func TestImprovementsMonotone(t *testing.T) {
	p := gen.Defaults()
	gg := gen.New(p, 4041) // contested seed: EDF suboptimal
	g := gg.Graph()
	if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
		t.Fatal(err)
	}
	rec, res := tracedSolve(t, g, 3, 0)
	imps := rec.Improvements()
	if len(imps) != res.Stats.IncumbentUpdates {
		t.Fatalf("%d improvements recorded, stats say %d", len(imps), res.Stats.IncumbentUpdates)
	}
	for i := 1; i < len(imps); i++ {
		if imps[i].Cost >= imps[i-1].Cost {
			t.Fatalf("incumbent not strictly improving: %v", imps)
		}
	}
	if len(imps) > 0 && imps[len(imps)-1].Cost != res.Cost {
		t.Fatalf("last improvement %d != final cost %d", imps[len(imps)-1].Cost, res.Cost)
	}
}

func TestSummaryAndDOT(t *testing.T) {
	g := taskgraph.Diamond()
	rec, _ := tracedSolve(t, g, 2, 0)
	sum := rec.Summary()
	for _, want := range []string{"expand", "generate", "goal"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	dot := rec.DOT()
	for _, want := range []string{"digraph searchtree", "v0 [label=\"root\"", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q", want)
		}
	}
}

// TestRecorderConcurrentObservers drives the recorder from SolveParallel's
// worker goroutines (run under -race in scripts/check.sh). Events arrive
// with no global order, but the counters must still reconcile exactly with
// the aggregated solver stats and every event must keep its unique Seq.
func TestRecorderConcurrentObservers(t *testing.T) {
	p := gen.Defaults()
	gg := gen.New(p, 4041)
	for i := 0; i < 4; i++ {
		g := gg.Graph()
		if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(0)
		res, err := core.SolveParallel(g, platform.New(2), core.ParallelParams{
			Params:  core.Params{Observer: rec.Observer()},
			Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Count(core.EventExpand); got != res.Stats.Expanded {
			t.Fatalf("graph %d: expand events %d != stats %d", i, got, res.Stats.Expanded)
		}
		if got := rec.Count(core.EventGoal); got != res.Stats.Goals {
			t.Fatalf("graph %d: goal events %d != stats %d", i, got, res.Stats.Goals)
		}
		gen := rec.Count(core.EventGenerate) + rec.Count(core.EventPrune) +
			rec.Count(core.EventDominated) + rec.Count(core.EventGoal)
		if gen != res.Stats.Generated {
			t.Fatalf("graph %d: generate+prune+goal %d != stats.Generated %d", i, gen, res.Stats.Generated)
		}
		seen := make(map[uint64]bool, len(rec.Events))
		for _, e := range rec.Events {
			if e.Kind == core.EventIncumbent {
				continue // re-announces the goal's Seq by design
			}
			key := e.Seq<<3 | uint64(e.Kind)
			if e.Kind == core.EventExpand && seen[key] {
				t.Fatalf("graph %d: duplicate expand seq %d", i, e.Seq)
			}
			seen[key] = true
		}
	}
}
