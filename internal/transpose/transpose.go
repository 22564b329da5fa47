// Package transpose implements a memory-bounded transposition table for
// duplicate detection in the branch-and-bound search.
//
// The paper's algorithm explores a TREE of partial schedules, so one state
// — reachable by many placement orders and processor relabelings — is
// re-expanded once per arrival path. Orr & Sinnen (duplicate-free task
// scheduling state spaces) showed pruning those re-arrivals yields
// order-of-magnitude searched-vertex reductions; Akram/Maas/Sanders showed
// a hard memory bound keeps the table safe to run. This package is that
// table, kept deliberately dependency-free: keys are the 128-bit canonical
// signatures computed by internal/sched (processor-permutation-invariant),
// values are the depth and lower bound of the first expansion.
//
// Design:
//
//   - A power-of-two array of 64-byte buckets (two 32-byte slots each, one
//     cache line), sized from a hard byte budget at construction. The
//     allocation never grows, so bytes-in-use ≤ budget holds structurally.
//   - Single owner: a table belongs to one search at a time, like the
//     kernel's vertex arena, so Probe and Store take no lock. Only the
//     spare handoff below crosses goroutines.
//   - Replacement: slot 0 is depth-preferred — shallower entries (larger
//     subtrees, more valuable to dedup) displace deeper ones, the loser
//     falls to slot 1; slot 1 is always-replace. Overwriting a live entry
//     counts as an eviction.
//   - Recycling: Release keeps a table of DefaultBudget as the package's
//     single spare and Acquire hands it out again instead of allocating.
//     Release bumps the table's epoch, and an entry of an older epoch reads
//     as never-used, so a recycled table is indistinguishable from a New
//     one without its buckets being touched.
//
// Subsumption: Probe reports a hit only for an entry with the same key AND
// depth whose stored bound is ≤ the probing child's bound. True duplicates
// have equal bounds (the bound is a function of the state); the depth and
// bound comparisons are collision guards layered on the 128-bit key, so a
// hash accident must also match depth and present a not-worse bound before
// it can prune anything.
package transpose

import "sync/atomic"

// slot is one stored state: 32 bytes, two per cache-line-sized bucket.
type slot struct {
	lo    uint64
	hi    uint64
	lb    int64
	depth int32
	epoch uint32 // live iff epoch == table epoch; 0 = never used
}

type bucket [2]slot

const (
	slotBytes   = 32
	bucketBytes = 64

	// MinBudget is the smallest accepted byte budget (64 buckets); New
	// clamps smaller requests up so the table always holds something.
	MinBudget = 64 * bucketBytes

	// DefaultBudget is the budget used when a caller passes 0, and the
	// size of every table Acquire hands out: 64 MiB, roughly two million
	// states.
	DefaultBudget = 64 << 20
)

// Stats is a point-in-time snapshot of the table counters and sizing.
type Stats struct {
	Hits      int64 // Probe found a subsuming entry
	Misses    int64 // Probe found nothing usable
	Stores    int64 // Store calls (including overwrites)
	Evictions int64 // live entries displaced by replacement

	Buckets    int   // bucket count (power of two)
	Budget     int64 // configured byte budget
	BytesCap   int64 // bytes actually allocated for buckets (≤ Budget)
	BytesInUse int64 // live entries × 32 bytes (≤ BytesCap)
}

// Table is the transposition table. It is not safe for concurrent use: one
// goroutine owns it from New or Acquire until Release.
type Table struct {
	buckets []bucket
	mask    uint64
	budget  int64
	epoch   uint32

	hits, misses, stores, evictions int64
	live                            int64 // slots holding a current-epoch entry
}

// New builds a table holding the largest power-of-two bucket count whose
// allocation fits budgetBytes (0 picks DefaultBudget; smaller than
// MinBudget is clamped up to it).
func New(budgetBytes int64) *Table {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	budgetBytes = max(budgetBytes, MinBudget)
	n := 1
	for int64(n*2)*bucketBytes <= budgetBytes {
		n *= 2
	}
	return &Table{buckets: make([]bucket, n), mask: uint64(n - 1), budget: budgetBytes, epoch: 1}
}

// spare is the one released table Acquire may hand out again. One slot
// serves a stream of sequential dedup solves, and an idle process keeps at
// most one table of DefaultBudget. The spare is pristine (see Release), so
// no caller can tell a recycled table from a New one.
var spare atomic.Pointer[Table]

// Acquire returns a table that is observationally identical to
// New(DefaultBudget) — zero counters, no visible entries — taking the
// spare when there is one. Hand it back with Release once the search that
// owns it is over.
func Acquire() *Table {
	if t := spare.Swap(nil); t != nil {
		return t
	}
	return New(DefaultBudget)
}

// Release makes a DefaultBudget table pristine in O(1) and keeps it as the
// spare, replacing any earlier one; a table of another size is left for
// the garbage collector, since Acquire never hands one out. The caller
// must be the table's owner and must not touch it afterwards. Releasing
// the current spare again panics before changing it; a second release
// after Acquire has handed the table out again cannot be detected.
func (t *Table) Release() {
	if spare.Load() == t {
		panic("transpose: table released twice")
	}
	if t.budget != DefaultBudget {
		return
	}
	t.epoch++
	if t.epoch == 0 { // uint32 wrap: 0 is the never-used sentinel
		t.epoch = 1
		clear(t.buckets)
	}
	t.hits, t.misses, t.stores, t.evictions, t.live = 0, 0, 0, 0, 0
	spare.Store(t)
}

// Probe reports whether a stored entry subsumes the state (same key, same
// depth, stored bound ≤ lb): the caller may prune the state as a
// duplicate.
func (t *Table) Probe(lo, hi uint64, depth int32, lb int64) bool {
	b := &t.buckets[(lo^hi*0x9e3779b97f4a7c15)&t.mask]
	for i := range b {
		s := &b[i]
		if s.lo == lo && s.hi == hi && s.depth == depth && s.epoch == t.epoch && s.lb <= lb {
			t.hits++
			return true
		}
	}
	t.misses++
	return false
}

// Store records an expanded state. Same-key entries are refreshed;
// otherwise dead (old-epoch or never-used) slots are claimed first, then
// the depth-preferred replacement runs: a new entry at depth ≤ slot 0's
// displaces it into slot 1; deeper entries replace slot 1 only.
func (t *Table) Store(lo, hi uint64, depth int32, lb int64) {
	b := &t.buckets[(lo^hi*0x9e3779b97f4a7c15)&t.mask]
	t.stores++

	// Refresh an existing record of the same state.
	for i := range b {
		s := &b[i]
		if s.lo == lo && s.hi == hi && s.depth == depth && s.epoch == t.epoch {
			s.lb = min(s.lb, lb)
			return
		}
	}
	// Tier placement. Slot 0 is the depth-preferred tier: a dead slot 0 is
	// claimed outright, and a new entry no deeper than the resident one
	// displaces it (the resident falls to slot 1). Everything else lands in
	// the always-replace slot 1.
	entry := slot{lo: lo, hi: hi, lb: lb, depth: depth, epoch: t.epoch}
	if b[0].epoch != t.epoch {
		b[0] = entry
		t.live++
		return
	}
	if b[1].epoch != t.epoch {
		t.live++
	} else {
		t.evictions++
	}
	if depth <= b[0].depth {
		b[1] = b[0]
		b[0] = entry
	} else {
		b[1] = entry
	}
}

// Snapshot returns the counters and sizing.
func (t *Table) Snapshot() Stats {
	return Stats{
		Hits:       t.hits,
		Misses:     t.misses,
		Stores:     t.stores,
		Evictions:  t.evictions,
		Buckets:    len(t.buckets),
		Budget:     t.budget,
		BytesCap:   int64(len(t.buckets)) * bucketBytes,
		BytesInUse: t.live * slotBytes,
	}
}
