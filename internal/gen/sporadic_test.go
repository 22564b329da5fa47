package gen

import (
	"testing"

	"repro/internal/taskgraph"
)

func sporadicFixture(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New(3)
	g.AddTask(taskgraph.Task{Exec: 2, Deadline: 10, Period: 10})
	g.AddTask(taskgraph.Task{Exec: 3, Deadline: 20, Period: 20, Phase: 5})
	g.AddTask(taskgraph.Task{Exec: 1, Deadline: 50}) // aperiodic
	return g
}

func TestReleasesStrictPeriodic(t *testing.T) {
	g := sporadicFixture(t)
	rel, err := New(Defaults(), 1).Releases(g, ReleaseParams{Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]taskgraph.Time{
		{0, 10, 20, 30},
		{5, 25},
		{0},
	}
	for id := range want {
		if len(rel[id]) != len(want[id]) {
			t.Fatalf("task %d: %v, want %v", id, rel[id], want[id])
		}
		for k := range want[id] {
			if rel[id][k] != want[id][k] {
				t.Fatalf("task %d: %v, want %v", id, rel[id], want[id])
			}
		}
	}
}

func TestReleasesSporadicSeparation(t *testing.T) {
	g := sporadicFixture(t)
	for seed := int64(0); seed < 20; seed++ {
		rel, err := New(Defaults(), seed).Releases(g, ReleaseParams{Horizon: 200, StretchFrac: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks() {
			if task.Period == 0 {
				continue
			}
			rs := rel[task.ID]
			for k := 1; k < len(rs); k++ {
				gap := rs[k] - rs[k-1]
				if gap < task.Period {
					t.Fatalf("seed %d task %d: gap %d below minimum inter-arrival %d",
						seed, task.ID, gap, task.Period)
				}
				if maxGap := task.Period + taskgraph.Time(0.5*float64(task.Period)); gap > maxGap {
					t.Fatalf("seed %d task %d: gap %d above stretch bound %d",
						seed, task.ID, gap, maxGap)
				}
			}
		}
	}
}

func TestReleasesJitterBounds(t *testing.T) {
	g := sporadicFixture(t)
	for seed := int64(0); seed < 20; seed++ {
		rel, err := New(Defaults(), seed).Releases(g, ReleaseParams{Horizon: 200, JitterFrac: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks() {
			if task.Period == 0 {
				continue
			}
			for k, r := range rel[task.ID] {
				nominal := task.ArrivalK(k + 1)
				jitter := r - nominal
				if jitter < 0 || float64(jitter) >= 0.3*float64(task.Period) {
					t.Fatalf("seed %d task %d inv %d: release %d has jitter %d outside [0, %g)",
						seed, task.ID, k+1, r, jitter, 0.3*float64(task.Period))
				}
				if k > 0 && r <= rel[task.ID][k-1] {
					t.Fatalf("seed %d task %d: releases not increasing: %v", seed, task.ID, rel[task.ID])
				}
			}
		}
	}
}

func TestReleasesRejectsBadParams(t *testing.T) {
	g := sporadicFixture(t)
	gen := New(Defaults(), 1)
	bad := []ReleaseParams{
		{}, // zero horizon
		{Horizon: 10, JitterFrac: -0.1},
		{Horizon: 10, StretchFrac: 1.5},
		{Horizon: 10, JitterFrac: 0.2, StretchFrac: 0.2}, // exclusive models
	}
	for i, p := range bad {
		if _, err := gen.Releases(g, p); err == nil {
			t.Errorf("case %d: accepted %+v", i, p)
		}
	}
}
