package transpose

import (
	"math/rand"
	"testing"
)

func TestSizingRespectsBudget(t *testing.T) {
	for _, budget := range []int64{0, 1, MinBudget, MinBudget + 1, 100_000, 1 << 20, (1 << 20) + 13} {
		tb := New(budget)
		s := tb.Snapshot()
		if s.Buckets&(s.Buckets-1) != 0 {
			t.Fatalf("budget %d: bucket count %d not a power of two", budget, s.Buckets)
		}
		if s.BytesCap > s.Budget {
			t.Fatalf("budget %d: allocated %d bytes over budget %d", budget, s.BytesCap, s.Budget)
		}
		if s.BytesCap*2 <= s.Budget && s.Budget >= 2*MinBudget {
			t.Fatalf("budget %d: allocated only %d bytes (not the largest fitting power of two)", budget, s.BytesCap)
		}
	}
}

func TestProbeStoreSubsumption(t *testing.T) {
	tb := New(MinBudget)
	if tb.Probe(1, 2, 3, 10) {
		t.Fatal("empty table produced a hit")
	}
	tb.Store(1, 2, 3, 10)
	if !tb.Probe(1, 2, 3, 10) {
		t.Fatal("equal-bound duplicate not subsumed")
	}
	if !tb.Probe(1, 2, 3, 11) {
		t.Fatal("worse-bound duplicate not subsumed")
	}
	if tb.Probe(1, 2, 3, 9) {
		t.Fatal("better-bound state wrongly subsumed")
	}
	if tb.Probe(1, 2, 4, 10) {
		t.Fatal("depth mismatch wrongly subsumed")
	}
	if tb.Probe(1, 3, 3, 10) {
		t.Fatal("key mismatch wrongly subsumed")
	}
	// Refresh lowers the stored bound.
	tb.Store(1, 2, 3, 7)
	if !tb.Probe(1, 2, 3, 7) {
		t.Fatal("refreshed bound not applied")
	}
	s := tb.Snapshot()
	if s.Hits != 3 || s.Misses != 4 {
		t.Fatalf("counters hits=%d misses=%d, want 3/4", s.Hits, s.Misses)
	}
	if s.BytesInUse != slotBytes {
		t.Fatalf("BytesInUse = %d, want %d (one live slot)", s.BytesInUse, slotBytes)
	}
}

func TestDepthPreferredReplacement(t *testing.T) {
	tb := New(MinBudget)
	nb := uint64(len(tb.buckets))
	// Three keys colliding into one bucket (same low bits).
	k1, k2, k3 := uint64(5), uint64(5+nb), uint64(5+2*nb)
	tb.Store(k1, 0, 8, 100) // depth 8
	tb.Store(k2, 0, 4, 200) // depth 4 → shallower, takes slot 0
	tb.Store(k3, 0, 6, 300) // bucket full: deeper than slot 0 → replaces slot 1
	if tb.Probe(k1, 0, 8, 100) {
		t.Fatal("deepest entry should have been evicted")
	}
	if !tb.Probe(k2, 0, 4, 200) || !tb.Probe(k3, 0, 6, 300) {
		t.Fatal("surviving entries lost")
	}
	s := tb.Snapshot()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.BytesInUse > s.BytesCap {
		t.Fatalf("BytesInUse %d exceeds BytesCap %d", s.BytesInUse, s.BytesCap)
	}
}

// TestBytesInUseNeverExceedsBudget fills the table far past capacity and
// checks the structural memory bound.
func TestBytesInUseNeverExceedsBudget(t *testing.T) {
	tb := New(MinBudget) // 64 buckets = 128 slots
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		tb.Store(rng.Uint64(), rng.Uint64(), int32(i%40), int64(i))
	}
	s := tb.Snapshot()
	if s.BytesInUse > s.BytesCap || s.BytesCap > s.Budget {
		t.Fatalf("memory accounting violated: inUse=%d cap=%d budget=%d", s.BytesInUse, s.BytesCap, s.Budget)
	}
	if s.Evictions == 0 {
		t.Fatal("overfill produced no evictions")
	}
	if s.BytesInUse != s.BytesCap {
		t.Fatalf("overfilled table not fully live: inUse=%d cap=%d", s.BytesInUse, s.BytesCap)
	}
}
