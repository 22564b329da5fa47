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
// with them) at mixed depths.
func fillKeys(tb *Table, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		tb.Store(uint64(rng.Intn(400)), uint64(rng.Intn(3)), int32(rng.Intn(6)), int64(rng.Intn(50)))
	}
}

func TestReleaseAcquireIsPristine(t *testing.T) {
	clearSpare()
	defer clearSpare()

	tb := Acquire()
	fillKeys(tb, 1)
	tb.Store(1, 2, 3, 10)
	tb.Store(4, 5, 6, 7)
	if !tb.Probe(1, 2, 3, 10) || !tb.Probe(4, 5, 6, 7) {
		t.Fatal("setup stores not visible")
	}
	tb.Release()

	re := Acquire()
	if re != tb {
		t.Fatal("Acquire allocated although a spare was idle")
	}
	want := New(DefaultBudget).Snapshot()
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
	if s.Hits != 0 || s.Stores != 0 || s.Evictions != 0 || s.BytesInUse != 0 {
		t.Fatalf("recycled table counters %+v, want all zero but misses", s)
	}
}

// TestRecycledTableMatchesFresh replays one operation script on a New
// table and on a recycled one whose buckets are full of old entries over
// the same key space: every probe answer and the final snapshot must agree.
func TestRecycledTableMatchesFresh(t *testing.T) {
	clearSpare()
	defer clearSpare()

	old := Acquire()
	fillKeys(old, 2)
	old.Release()
	re := Acquire()
	if re != old {
		t.Fatal("table was not recycled")
	}
	fresh := New(DefaultBudget)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		lo, hi := uint64(rng.Intn(400)), uint64(rng.Intn(3))
		depth, lb := int32(rng.Intn(6)), int64(rng.Intn(50))
		switch i % 10 {
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

// TestEpochWrapResetsBase: a Release that wraps the epoch counter
// restarts it at its base value 1 and clears the buckets, so no entry of
// an earlier epoch reads as live.
func TestEpochWrapResetsBase(t *testing.T) {
	clearSpare()
	defer clearSpare()

	tb := New(DefaultBudget)
	tb.epoch = math.MaxUint32
	tb.Store(1, 2, 3, 10)
	tb.Release()
	if tb.epoch != 1 {
		t.Fatalf("epoch %d after the wrap, want 1", tb.epoch)
	}
	if tb.Probe(1, 2, 3, 10) {
		t.Fatal("entry survived the wrap")
	}
	tb.Store(1, 2, 3, 10)
	if !tb.Probe(1, 2, 3, 10) {
		t.Fatal("store after the wrap lost")
	}
}

// TestReleaseKeepsOneSpare checks the retention bound: the latest release
// replaces the spare, and Acquire takes it.
func TestReleaseKeepsOneSpare(t *testing.T) {
	clearSpare()
	defer clearSpare()

	first, latest := New(DefaultBudget), New(DefaultBudget)
	first.Release()
	latest.Release()
	if spare.Load() != latest {
		t.Fatal("the latest release did not replace the spare")
	}
	if Acquire() != latest || spare.Load() != nil {
		t.Fatal("Acquire did not take the spare")
	}
	if tb := Acquire(); tb == first || tb == latest {
		t.Fatal("Acquire handed out a table that is not the spare")
	}
}

// TestReleaseDropsOversizedTable checks that a table Acquire would not
// hand out, larger or smaller than DefaultBudget, is left for the garbage
// collector instead of replacing the spare.
func TestReleaseDropsOversizedTable(t *testing.T) {
	clearSpare()
	defer clearSpare()

	kept := New(DefaultBudget)
	kept.Release()
	for _, budget := range []int64{MinBudget, DefaultBudget + 1} {
		New(budget).Release()
		if spare.Load() != kept {
			t.Fatalf("releasing a table of budget %d replaced the spare", budget)
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	clearSpare()
	defer clearSpare()

	tb := New(DefaultBudget)
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

// TestConcurrentAcquireRelease cycles tables through the spare from
// several goroutines (run it under -race): every table handed out must be
// pristine and owned by exactly one goroutine at a time. Each table is
// 64 MiB, so the goroutine and round counts stay small.
func TestConcurrentAcquireRelease(t *testing.T) {
	clearSpare()
	defer clearSpare()

	var owners sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				tb := Acquire()
				if _, taken := owners.LoadOrStore(tb, seed); taken {
					t.Errorf("table handed to two goroutines at once")
					return
				}
				if s := tb.Snapshot(); s.Hits != 0 || s.Stores != 0 || s.BytesInUse != 0 {
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
