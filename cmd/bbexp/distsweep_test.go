package main

import (
	"testing"
	"time"

	"repro/internal/exp"
)

// TestDistSweepRegistered checks bbexp resolves dist-sweep by name.
func TestDistSweepRegistered(t *testing.T) {
	if _, err := exp.ByName(experiments, "dist-sweep"); err != nil {
		t.Fatalf("dist-sweep not in bbexp's experiments: %v", err)
	}
}

// TestDistSweepShape runs a shrunken sweep (one seed, 1 and 2 workers)
// end to end: every point must hold one observation per instance, agree
// with the sequential cost (enforced inside DistSweep), and carry a
// positive speedup and vertex ratio.
func TestDistSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves over loopback HTTP")
	}
	oldW, oldS, oldD := distSweepWorkers, distSweepSeeds, distSweepStragglerDelay
	distSweepWorkers = []int{1, 2}
	distSweepSeeds = []int64{931}
	distSweepStragglerDelay = 20 * time.Millisecond
	defer func() { distSweepWorkers, distSweepSeeds, distSweepStragglerDelay = oldW, oldS, oldD }()

	cfg := exp.Quick()
	cfg.TimeLimit = 30 * time.Second
	cfg.Logf = t.Logf

	fig, err := DistSweep(cfg)
	if err != nil {
		t.Fatalf("DistSweep: %v", err)
	}
	// One "static", one "spec" (speculation-enabled) and one "dupfree"
	// (speculation + duplicate-free generation) series per combo.
	if fig.ID != "dist-sweep" || len(fig.Series) != 3*len(distSweepCombos) {
		t.Fatalf("unexpected figure shape: %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(distSweepWorkers) {
			t.Fatalf("series %s has %d points, want %d", s.Variant, len(s.Points), len(distSweepWorkers))
		}
		for _, pt := range s.Points {
			if pt.Runs != len(distSweepSeeds) || pt.Vertices.N() != pt.Runs {
				t.Errorf("%s w=%v: %d runs, %d speedup samples, want %d",
					s.Variant, pt.X, pt.Runs, pt.Vertices.N(), len(distSweepSeeds))
			}
			if pt.Vertices.Mean() <= 0 || pt.Lateness.Mean() <= 0 {
				t.Errorf("%s w=%v: non-positive speedup %.3f or vertex ratio %.3f",
					s.Variant, pt.X, pt.Vertices.Mean(), pt.Lateness.Mean())
			}
		}
	}
}
