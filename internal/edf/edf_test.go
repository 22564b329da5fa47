package edf

import (
	"testing"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func TestScheduleCompletesAndValidates(t *testing.T) {
	g := gen.New(gen.Defaults(), 21)
	for i := 0; i < 100; i++ {
		tg := g.Graph()
		if err := deadline.Assign(tg, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 4; m++ {
			res, err := Schedule(tg, platform.New(m))
			if err != nil {
				t.Fatalf("graph %d m=%d: %v", i, m, err)
			}
			if !res.Schedule.Complete() {
				t.Fatalf("graph %d m=%d: incomplete schedule", i, m)
			}
			if err := res.Schedule.Check(); err != nil {
				t.Fatalf("graph %d m=%d: invalid schedule: %v", i, m, err)
			}
			if res.Lmax != res.Schedule.Lmax() {
				t.Fatalf("graph %d m=%d: reported Lmax %d != schedule Lmax %d",
					i, m, res.Lmax, res.Schedule.Lmax())
			}
			if res.Steps != tg.NumTasks() {
				t.Fatalf("graph %d m=%d: %d steps for %d tasks", i, m, res.Steps, tg.NumTasks())
			}
		}
	}
}

func TestEDFPrefersCloserDeadline(t *testing.T) {
	// Two independent tasks on one processor; the one with the closer
	// absolute deadline must run first even though it has the larger ID.
	g := taskgraph.New(2)
	a := g.AddTask(taskgraph.Task{Exec: 5, Deadline: 100})
	b := g.AddTask(taskgraph.Task{Exec: 5, Deadline: 20})
	res, err := Schedule(g, platform.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Start(b) != 0 || res.Schedule.Start(a) != 5 {
		t.Fatalf("order wrong: a@%d b@%d", res.Schedule.Start(a), res.Schedule.Start(b))
	}
}

func TestEDFTieBreaksDeterministically(t *testing.T) {
	// Equal deadlines: smaller ID first. Equal ESTs: smaller processor.
	g := taskgraph.Independent(2, 5)
	res, err := Schedule(g, platform.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Proc(0) != 0 || res.Schedule.Proc(1) != 1 {
		t.Fatalf("procs: %d, %d; want 0, 1", res.Schedule.Proc(0), res.Schedule.Proc(1))
	}
	if res.Schedule.Start(0) != 0 || res.Schedule.Start(1) != 0 {
		t.Fatal("independent tasks should start at 0 on separate processors")
	}
}

func TestEDFPicksEarliestStartProcessor(t *testing.T) {
	// Chain a→b with a large message: b starts earlier on a's processor
	// (no comm) than on the idle one (comm 10).
	g := taskgraph.Chain(2, 5, 10)
	res, err := Schedule(g, platform.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Proc(1) != res.Schedule.Proc(0) {
		t.Fatal("EDF shipped the message instead of co-locating")
	}
	if res.Schedule.Start(1) != 5 {
		t.Fatalf("b starts at %d, want 5", res.Schedule.Start(1))
	}

	// With a tiny message, spreading wins when the first processor is busy:
	// fork a→{b,c}; after a and b, c goes to the other processor.
	fj := taskgraph.ForkJoin(2, 5, 1)
	res, err = Schedule(fj, platform.New(2))
	if err != nil {
		t.Fatal(err)
	}
	mids := []taskgraph.TaskID{1, 2}
	if res.Schedule.Proc(mids[0]) == res.Schedule.Proc(mids[1]) {
		t.Fatal("EDF serialized parallel tasks despite an idle processor")
	}
}

func TestEDFRejectsBadInputs(t *testing.T) {
	g := taskgraph.New(2)
	a := g.AddTask(taskgraph.Task{Exec: 1, Deadline: 10})
	b := g.AddTask(taskgraph.Task{Exec: 1, Deadline: 10})
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, a, 0)
	if _, err := Schedule(g, platform.New(1)); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	if _, err := Schedule(taskgraph.Diamond(), platform.Platform{M: 0}); err == nil {
		t.Fatal("bad platform accepted")
	}
}

// ScheduleOn resets whatever the state holds and leaves Schedule's
// schedule in it: the same placements, hence the same Lmax, as a fresh
// state's.
func TestScheduleOnResetsAndMatchesSchedule(t *testing.T) {
	g := taskgraph.ForkJoin(4, 10, 1)
	p := platform.New(2)
	want, err := Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	st := sched.NewState(g, p)
	st.Place(0, 1)
	st.Place(3, 0)
	if err := ScheduleOn(st); err != nil {
		t.Fatal(err)
	}
	if st.NumPlaced() != g.NumTasks() || st.Lmax() != want.Lmax {
		t.Fatalf("ScheduleOn: %d placed, Lmax %d; Schedule: Lmax %d", st.NumPlaced(), st.Lmax(), want.Lmax)
	}
	for id := 0; id < g.NumTasks(); id++ {
		tid := taskgraph.TaskID(id)
		if st.Proc(tid) != want.Schedule.Proc(tid) || st.Start(tid) != want.Schedule.Start(tid) {
			t.Fatalf("task %d: ScheduleOn p%d@%d, Schedule p%d@%d", id,
				st.Proc(tid), st.Start(tid), want.Schedule.Proc(tid), want.Schedule.Start(tid))
		}
	}
}

func TestEDFMoreProcessorsNeverHurtsOnForkJoin(t *testing.T) {
	// Not a theorem for EDF in general, but on a clean fork-join it must
	// hold and pins down the comm/parallelism trade-off implementation.
	g := taskgraph.ForkJoin(4, 10, 1)
	prev := taskgraph.Infinity
	for m := 1; m <= 4; m++ {
		res, err := Schedule(g, platform.New(m))
		if err != nil {
			t.Fatal(err)
		}
		if res.Lmax > prev {
			t.Fatalf("m=%d worsened Lmax: %d > %d", m, res.Lmax, prev)
		}
		prev = res.Lmax
	}
}
