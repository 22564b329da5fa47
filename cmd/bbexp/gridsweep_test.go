package main

import (
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestGridSweepRegistered checks bbexp resolves grid-sweep by name.
func TestGridSweepRegistered(t *testing.T) {
	if _, err := exp.ByName(experiments, "grid-sweep"); err != nil {
		t.Fatalf("grid-sweep not in bbexp's experiments: %v", err)
	}
}

// TestGridSweepShape runs a shrunken sweep (1 and 2 replicas, two graphs
// per tenant) end to end and checks the cache contract the figure
// documents: the cold phase misses everywhere, the peered replay serves
// every request from cache at every fleet size, and the isolated replay
// only does so on a single replica.
func TestGridSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves over loopback HTTP")
	}
	oldR, oldG := gridSweepReplicas, gridSweepGraphs
	gridSweepReplicas = []int{1, 2}
	gridSweepGraphs = 2
	defer func() { gridSweepReplicas, gridSweepGraphs = oldR, oldG }()

	cfg := exp.Quick()
	cfg.Logf = t.Logf

	fig, err := GridSweep(cfg)
	if err != nil {
		t.Fatalf("GridSweep: %v", err)
	}
	if fig.ID != "grid-sweep" || len(fig.Series) != 2*len(gridSweepTenants) {
		t.Fatalf("unexpected figure shape: %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(gridSweepReplicas) {
			t.Fatalf("series %s has %d points, want %d", s.Variant, len(s.Points), len(gridSweepReplicas))
		}
		isolated := strings.HasPrefix(s.Variant, "isolated")
		for _, pt := range s.Points {
			if pt.Runs != 2*gridSweepGraphs {
				t.Errorf("%s r=%v: %d requests, want %d", s.Variant, pt.X, pt.Runs, 2*gridSweepGraphs)
			}
			if cold := pt.Vertices.Mean(); cold != 0 {
				t.Errorf("%s r=%v: cold hit rate %.2f, want 0", s.Variant, pt.X, cold)
			}
			warm := pt.Lateness.Mean()
			switch {
			case !isolated || pt.X == 1:
				if warm != 1 {
					t.Errorf("%s r=%v: replay hit rate %.2f, want 1 (peer-warmed)", s.Variant, pt.X, warm)
				}
			default:
				if warm != 0 {
					t.Errorf("%s r=%v: replay hit rate %.2f, want 0 (isolated, rotated)", s.Variant, pt.X, warm)
				}
			}
		}
	}
}
