package transpose

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// clearSpare empties the package spare so a test starts from, and leaves
// behind, a known state.
func clearSpare() { spare.Store(nil) }

// fillKeys stores keys drawn from a small space (so later probes collide
// with them) at mixed depths, with a few resets in between.
func fillKeys(tb *Table, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		if i%700 == 699 {
			tb.Reset()
		}
		tb.Store(uint64(rng.Intn(400)), uint64(rng.Intn(3)), int32(rng.Intn(6)), int64(rng.Intn(50)))
	}
}

func TestReleaseAcquireIsPristine(t *testing.T) {
	clearSpare()
	defer clearSpare()

	tb := Acquire(MinBudget)
	fillKeys(tb, 1)
	tb.Store(1, 2, 3, 10)
	tb.Store(4, 5, 6, 7)
	if !tb.Probe(1, 2, 3, 10) || !tb.Probe(4, 5, 6, 7) {
		t.Fatal("setup stores not visible")
	}
	tb.Release()

	re := Acquire(MinBudget)
	if re != tb {
		t.Fatal("Acquire allocated although a spare of the same size was idle")
	}
	want := New(MinBudget).Snapshot()
	if got := re.Snapshot(); got != want {
		t.Fatalf("recycled snapshot %+v, fresh %+v", got, want)
	}
	if re.Probe(1, 2, 3, 10) || re.Probe(4, 5, 6, 7) {
		t.Fatal("a recycled table still answers for old keys")
	}
	for lo := uint64(0); lo < 400; lo++ {
		for hi := uint64(0); hi < 3; hi++ {
			for d := int32(0); d < 6; d++ {
				if re.Probe(lo, hi, d, math.MaxInt64) {
					t.Fatalf("old key (%d,%d,%d) visible after recycling", lo, hi, d)
				}
			}
		}
	}
	s := re.Snapshot()
	if s.Hits != 0 || s.Stale != 0 || s.Stores != 0 || s.Evictions != 0 || s.BytesInUse != 0 {
		t.Fatalf("recycled table counters %+v, want all zero but misses", s)
	}
}

// TestRecycledTableMatchesFresh replays one operation script on a New
// table and on a recycled one whose buckets are full of old entries over
// the same key space: every probe answer and the final snapshot must agree.
func TestRecycledTableMatchesFresh(t *testing.T) {
	clearSpare()
	defer clearSpare()

	old := Acquire(MinBudget)
	fillKeys(old, 2)
	old.Release()
	re := Acquire(MinBudget)
	if re != old {
		t.Fatal("table was not recycled")
	}
	fresh := New(MinBudget)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		lo, hi := uint64(rng.Intn(400)), uint64(rng.Intn(3))
		depth, lb := int32(rng.Intn(6)), int64(rng.Intn(50))
		switch i % 10 {
		case 0:
			if i%1000 == 0 {
				fresh.Reset()
				re.Reset()
			}
		case 1, 2, 3:
			fresh.Store(lo, hi, depth, lb)
			re.Store(lo, hi, depth, lb)
		default:
			if a, b := fresh.Probe(lo, hi, depth, lb), re.Probe(lo, hi, depth, lb); a != b {
				t.Fatalf("op %d: probe(%d,%d,%d,%d) fresh=%v recycled=%v", i, lo, hi, depth, lb, a, b)
			}
		}
	}
	if a, b := fresh.Snapshot(), re.Snapshot(); a != b {
		t.Fatalf("snapshots differ:\nfresh    %+v\nrecycled %+v", a, b)
	}
}

func TestEpochWrapResetsBase(t *testing.T) {
	clearSpare()
	defer clearSpare()

	for _, op := range []struct {
		name string
		run  func(*Table)
	}{
		{"Reset", (*Table).Reset},
		{"Release", (*Table).Release},
	} {
		tb := New(MinBudget)
		tb.epoch, tb.base = math.MaxUint32, math.MaxUint32-3
		tb.Store(1, 2, 3, 10)
		op.run(tb)
		if tb.epoch != 1 || tb.base != 1 {
			t.Fatalf("%s at the wrap: epoch %d base %d, want 1 and 1", op.name, tb.epoch, tb.base)
		}
		if tb.Probe(1, 2, 3, 10) {
			t.Fatalf("%s at the wrap: entry survived", op.name)
		}
		if s := tb.Snapshot(); s.Stale != 0 {
			t.Fatalf("%s at the wrap: stale %d, want 0 (buckets are cleared)", op.name, s.Stale)
		}
		tb.Store(1, 2, 3, 10)
		if !tb.Probe(1, 2, 3, 10) {
			t.Fatalf("%s at the wrap: store after the wrap lost", op.name)
		}
	}
}

// TestReleaseKeepsOneSpare checks the retention bound: the latest release
// replaces the spare, and Acquire takes it only at its bucket count.
func TestReleaseKeepsOneSpare(t *testing.T) {
	clearSpare()
	defer clearSpare()

	small, large := New(MinBudget), New(2*MinBudget)
	small.Release()
	large.Release()
	if spare.Load() != large {
		t.Fatal("the latest release did not replace the spare")
	}
	if tb := Acquire(MinBudget); tb == small || tb == large {
		t.Fatal("Acquire handed out a table that is not a spare of its bucket count")
	}
	if spare.Load() != large {
		t.Fatal("Acquire at another bucket count took the spare")
	}
	if Acquire(2*MinBudget) != large || spare.Load() != nil {
		t.Fatal("Acquire at the spare's bucket count did not take it")
	}
}

// TestReleaseDropsOversizedTable checks that a table over DefaultBudget is
// left for the garbage collector instead of replacing the spare, so a large
// per-request budget is not pinned after its solve.
func TestReleaseDropsOversizedTable(t *testing.T) {
	clearSpare()
	defer clearSpare()

	kept := New(MinBudget)
	kept.Release()
	big := New(MinBudget)
	big.budget = DefaultBudget + 1 // Release reads the budget; a real one would allocate 64 MiB
	big.Release()
	if spare.Load() != kept {
		t.Fatal("releasing an oversized table replaced the spare")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	clearSpare()
	defer clearSpare()

	tb := New(MinBudget)
	tb.Release()
	epoch := tb.epoch
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
		if tb.epoch != epoch || spare.Load() != tb {
			t.Fatal("the rejected Release changed the table or the spare")
		}
	}()
	tb.Release()
}

// TestConcurrentAcquireRelease cycles tables of two sizes through the
// spare from many goroutines (run it under -race): every table handed out
// must be pristine and owned by exactly one goroutine at a time.
func TestConcurrentAcquireRelease(t *testing.T) {
	clearSpare()
	defer clearSpare()

	var owners sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				tb := Acquire(MinBudget << rng.Intn(2))
				if _, taken := owners.LoadOrStore(tb, seed); taken {
					t.Errorf("table handed to two goroutines at once")
					return
				}
				if s := tb.Snapshot(); s.Hits != 0 || s.Stores != 0 || s.Stale != 0 || s.BytesInUse != 0 {
					t.Errorf("acquired a used table: %+v", s)
					return
				}
				lo := rng.Uint64()
				tb.Store(lo, 1, 2, 3)
				if !tb.Probe(lo, 1, 2, 3) {
					t.Errorf("store lost on an acquired table")
					return
				}
				owners.Delete(tb)
				tb.Release()
			}
		}(int64(w))
	}
	wg.Wait()
}
