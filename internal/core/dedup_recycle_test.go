package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/transpose"
)

// sameStats compares every Stats field except the wall-clock Elapsed.
func sameStats(a, b Stats) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return a == b
}

// TestDedupRecyclingConcurrent runs dedup solves while another goroutine
// cycles tables through the transpose spare (run it under -race
// -count=10): a recycled table must never carry state from one owner to
// the next. Every table is 64 MiB, so one goroutine cycles.
func TestDedupRecyclingConcurrent(t *testing.T) {
	graphs := wideWorkloads(t, 2, 9, 101)
	plat := platform.New(3)
	p := Params{Dedup: true}
	want := make([]Result, len(graphs))
	for i, g := range graphs {
		want[i] = mustSolve(t, g, plat, p)
		if want[i].Stats.DedupPruned == 0 {
			t.Fatalf("graph %d: no duplicates pruned; the workload does not exercise the table", i)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tb := transpose.Acquire()
			if s := tb.Snapshot(); s.Stores != 0 || s.BytesInUse != 0 {
				t.Errorf("acquired a used table: %+v", s)
			}
			for i := 0; i < 64; i++ {
				lo, hi := rng.Uint64(), rng.Uint64()
				tb.Store(lo, hi, int32(i%9), 0)
				tb.Probe(lo, hi, int32(i%9), 0)
			}
			tb.Release()
		}
	}()
	for round := 0; round < 3; round++ {
		for i, g := range graphs {
			seq := mustSolve(t, g, plat, p)
			if seq.Cost != want[i].Cost || !sameStats(seq.Stats, want[i].Stats) {
				t.Errorf("round %d graph %d: sequential stats %+v, want %+v", round, i, seq.Stats, want[i].Stats)
			}
		}
	}
}
