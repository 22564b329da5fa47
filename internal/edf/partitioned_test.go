package edf

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// readyScanLmax is the partitioned-EDF simulation before its order was
// fixed: from an empty schedule, n times, scan every task for readiness
// and place the earliest-deadline ready one (smallest ID on ties). It
// returns the maximum lateness and the tasks in the order it placed them.
func readyScanLmax(st *sched.State, assign []platform.Proc) (taskgraph.Time, []taskgraph.TaskID) {
	g := st.G
	st.Reset()
	var placed, ready []taskgraph.TaskID
	for step := 0; step < g.NumTasks(); step++ {
		ready = st.ReadyTasks(ready[:0])
		best := ready[0]
		for _, id := range ready[1:] {
			if g.Task(id).AbsDeadline() < g.Task(best).AbsDeadline() {
				best = id
			}
		}
		st.Place(best, assign[best])
		placed = append(placed, best)
	}
	return st.Lmax(), placed
}

// drawProc picks one of the task's allowed processors.
func drawProc(rng *rand.Rand, p platform.Platform, id taskgraph.TaskID) platform.Proc {
	var allowed []platform.Proc
	for q := 0; q < p.M; q++ {
		if p.Allows(id, platform.Proc(q)) {
			allowed = append(allowed, platform.Proc(q))
		}
	}
	return allowed[rng.Intn(len(allowed))]
}

// PartitionedLmax on one reused state must agree with a fresh ready-scan
// simulation of every assignment: the same Lmax and schedule. Consecutive
// assignments agree up to a random position of the EDF order and are
// re-drawn after it, so the kept trail is sometimes all of it, sometimes
// none and mostly a proper prefix. The fixed order must be the sequence
// the ready scan places.
func TestPartitionedLmaxMatchesReadyScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	var partial int
	for trial := 0; trial < 60; trial++ {
		gp := gen.Defaults()
		gp.NMin, gp.NMax = 4, 14
		gp.DepthMin, gp.DepthMax = 1, 6
		gp.CCR = float64(trial%3) / 2
		g := gen.New(gp, int64(trial)).Graph()
		// Every fifth graph keeps the generator's equal placeholder
		// deadlines, so the order is decided by ID ties alone.
		if trial%5 > 0 {
			if err := deadline.Assign(g, 0.8+0.2*float64(trial%4), deadline.EqualSlack); err != nil {
				t.Fatal(err)
			}
		}
		n, m := g.NumTasks(), 2+trial%3
		p := platform.Platform{M: m, CommDelay: 1}
		if trial%3 > 0 {
			p.Speed = make([]float64, m)
			for q := range p.Speed {
				p.Speed[q] = []float64{0.5, 1, 1.5, 2}[rng.Intn(4)]
			}
		}
		if trial%2 > 0 {
			p.Affinity = make([]uint64, n)
			for id := range p.Affinity {
				p.Affinity[id] = 1 + uint64(rng.Intn(1<<m-1))
			}
		}

		order := PartitionedOrder(g)
		st, ref := sched.NewState(g, p), sched.NewState(g, p)
		assign := make([]platform.Proc, n)
		for id := range assign {
			assign[id] = drawProc(rng, p, taskgraph.TaskID(id))
		}
		for step := 0; step < 25; step++ {
			from := rng.Intn(n + 1)
			if step > 0 && from > 0 && from < n {
				partial++
			}
			for _, id := range order[from:] {
				assign[id] = drawProc(rng, p, id)
			}
			got := PartitionedLmax(st, assign, order)
			want, placed := readyScanLmax(ref, assign)
			if !reflect.DeepEqual(order, placed) {
				t.Fatalf("trial %d: fixed order %v, ready scan placed %v", trial, order, placed)
			}
			if got != want {
				t.Fatalf("trial %d step %d: Lmax %d, ready scan %d (assign %v)", trial, step, got, want, assign)
			}
			if !reflect.DeepEqual(st.Snapshot(), ref.Snapshot()) {
				t.Fatalf("trial %d step %d: schedule\n%v\nready scan\n%v", trial, step, st.Snapshot(), ref.Snapshot())
			}
		}
	}
	if partial == 0 {
		t.Fatal("no assignment kept a proper prefix of the trail")
	}
}
