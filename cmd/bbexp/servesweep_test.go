package main

import (
	"testing"
	"time"

	"repro/internal/exp"
)

// TestServeSweepRegistered checks bbexp resolves serve-sweep by name and
// lists it among its experiments.
func TestServeSweepRegistered(t *testing.T) {
	if _, err := exp.ByName(experiments, "serve-sweep"); err != nil {
		t.Fatalf("serve-sweep not in bbexp's experiments: %v", err)
	}
	found := false
	for _, id := range exp.IDs(experiments) {
		if id == "serve-sweep" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exp.IDs(experiments) does not list serve-sweep: %v", exp.IDs(experiments))
	}
}

// TestServeSweepWarmBeatsCold pins the experiment's core claim: on the
// paper's default 12–16-task workload, the warm-cache pass sustains
// strictly higher throughput than the cold pass at every concurrency.
func TestServeSweepWarmBeatsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves over loopback HTTP")
	}
	old := sweepConcurrency
	sweepConcurrency = []int{2}
	defer func() { sweepConcurrency = old }()

	cfg := exp.Quick()
	cfg.Runs = 4 // 16 requests per pass
	cfg.Procs = []int{4}
	cfg.TimeLimit = 2 * time.Second
	cfg.Logf = t.Logf

	fig, err := ServeSweep(cfg)
	if err != nil {
		t.Fatalf("ServeSweep: %v", err)
	}
	if fig.ID != "serve-sweep" || len(fig.Series) != 2 {
		t.Fatalf("unexpected figure shape: %+v", fig)
	}
	var cold, warm *exp.Series
	for i := range fig.Series {
		switch fig.Series[i].Variant {
		case "cold":
			cold = &fig.Series[i]
		case "warm":
			warm = &fig.Series[i]
		}
	}
	if cold == nil || warm == nil {
		t.Fatalf("missing cold/warm series: %+v", fig.Series)
	}
	for j := range cold.Points {
		cp, wp := cold.Points[j], warm.Points[j]
		if wp.Vertices.Mean() <= cp.Vertices.Mean() {
			t.Errorf("c=%v: warm %.1f req/s not above cold %.1f req/s",
				cp.X, wp.Vertices.Mean(), cp.Vertices.Mean())
		}
		if got := cp.MaxAS.Mean(); got != 0 {
			t.Errorf("c=%v: cold pass reports %.0f cache hits, want 0", cp.X, got)
		}
		if got, want := wp.MaxAS.Mean(), float64(cp.Runs); got != want {
			t.Errorf("c=%v: warm pass reports %.0f cache hits, want %.0f", wp.X, got, want)
		}
		if cp.Lateness.N() != cp.Runs || wp.Lateness.N() != wp.Runs {
			t.Errorf("c=%v: latency sample sizes %d/%d, want %d", cp.X,
				cp.Lateness.N(), wp.Lateness.N(), cp.Runs)
		}
	}
}
