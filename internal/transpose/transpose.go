// Package transpose implements a sharded, memory-bounded transposition
// table for duplicate detection in the branch-and-bound search.
//
// The paper's algorithm explores a TREE of partial schedules, so one state
// — reachable by many placement orders and processor relabelings — is
// re-expanded once per arrival path. Orr & Sinnen (duplicate-free task
// scheduling state spaces) showed pruning those re-arrivals yields
// order-of-magnitude searched-vertex reductions; Akram/Maas/Sanders showed
// the win survives parallel search when the table is sharded and its
// memory hard-bounded. This package is that table, kept deliberately
// dependency-free: keys are the 128-bit canonical signatures computed by
// internal/sched (processor-permutation-invariant), values are the depth
// and lower bound of the first expansion.
//
// Design:
//
//   - A power-of-two array of 64-byte buckets (two 32-byte slots each, one
//     cache line), sized from a hard byte budget at construction. The
//     allocation never grows, so bytes-in-use ≤ budget holds structurally.
//   - Striped locks: bucket index → one of 128 stripes, each with its own
//     mutex and counters, so concurrent workers (SolveParallel) rarely
//     contend.
//   - Replacement: slot 0 is depth-preferred — shallower entries (larger
//     subtrees, more valuable to dedup) displace deeper ones, the loser
//     falls to slot 1; slot 1 is always-replace. Overwriting a live entry
//     counts as an eviction.
//   - Reset is O(#stripes): a global epoch is bumped and entries from old
//     epochs are treated as absent (counted stale when touched) and
//     reclaimed lazily. SolveIDA resets between threshold iterations.
//   - Recycling: Release keeps a table of at most DefaultBudget as the
//     package's single spare and Acquire hands it out again instead of
//     allocating. Release also moves the table's base epoch past every
//     stored entry, and entries older than the base read as never-used, so
//     a recycled table is indistinguishable from a New one — its stale
//     counter included.
//
// Subsumption: Probe reports a hit only for an entry with the same key AND
// depth whose stored bound is ≤ the probing child's bound. True duplicates
// have equal bounds (the bound is a function of the state); the depth and
// bound comparisons are collision guards layered on the 128-bit key, so a
// hash accident must also match depth and present a not-worse bound before
// it can prune anything.
package transpose

import (
	"sync"
	"sync/atomic"
)

// slot is one stored state: 32 bytes, two per cache-line-sized bucket.
type slot struct {
	lo    uint64
	hi    uint64
	lb    int64
	depth int32
	epoch uint32 // 0 or below the table's base = never used; live iff epoch == table epoch
}

type bucket [2]slot

const (
	slotBytes   = 32
	bucketBytes = 64
	numStripes  = 128

	// MinBudget is the smallest accepted byte budget (64 buckets); New
	// clamps smaller requests up so the table always holds something.
	MinBudget = 64 * bucketBytes

	// DefaultBudget is the budget used when a caller passes 0: 64 MiB,
	// roughly two million states.
	DefaultBudget = 64 << 20
)

// stripe is one lock shard with its counters, padded to a cache line so
// neighbouring stripes do not false-share.
type stripe struct {
	mu        sync.Mutex
	hits      int64
	misses    int64
	stores    int64
	evictions int64
	stale     int64
	live      int64 // slots holding a current-epoch entry
	_         [2]uint64
}

// Stats is a point-in-time snapshot of the table counters and sizing.
type Stats struct {
	Hits      int64 // Probe found a subsuming entry
	Misses    int64 // Probe found nothing usable
	Stores    int64 // Store calls (including overwrites)
	Evictions int64 // live entries displaced by replacement
	Stale     int64 // old-epoch entries touched (counted once per touch)

	Buckets    int   // bucket count (power of two)
	Budget     int64 // configured byte budget
	BytesCap   int64 // bytes actually allocated for buckets (≤ Budget)
	BytesInUse int64 // live entries × 32 bytes (≤ BytesCap)
}

// Table is the sharded transposition table. All methods are safe for
// concurrent use.
type Table struct {
	buckets []bucket
	mask    uint64
	budget  int64
	epoch   uint32 // written under ALL stripe locks, read under any one
	base    uint32 // entries older than base are never-used; same locking as epoch
	stripes [numStripes]stripe
}

// New builds a table holding the largest power-of-two bucket count whose
// allocation fits budgetBytes (0 picks DefaultBudget; smaller than
// MinBudget is clamped up to it).
func New(budgetBytes int64) *Table {
	budgetBytes = clampBudget(budgetBytes)
	n := bucketCount(budgetBytes)
	return &Table{
		buckets: make([]bucket, n),
		mask:    uint64(n - 1),
		budget:  budgetBytes,
		epoch:   1,
		base:    1,
	}
}

// clampBudget applies New's budget defaults: 0 picks DefaultBudget and
// anything below MinBudget is raised to it.
func clampBudget(budgetBytes int64) int64 {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	if budgetBytes < MinBudget {
		budgetBytes = MinBudget
	}
	return budgetBytes
}

// bucketCount is the largest power-of-two bucket count whose allocation
// fits a clamped budget.
func bucketCount(budgetBytes int64) int {
	n := 1
	for int64(n*2)*bucketBytes <= budgetBytes {
		n *= 2
	}
	return n
}

// spare is the one released table Acquire may hand out again. One slot
// serves a stream of sequential dedup solves, and an idle process keeps at
// most one table of at most DefaultBudget. The spare is pristine (see
// Release), so no caller can tell a recycled table from a New one.
var spare atomic.Pointer[Table]

// Acquire returns a table that is observationally identical to
// New(budgetBytes) — same bucket count and budget, zero counters, no
// visible entries — taking the spare when it has that
// bucket count. Hand it back with Release once no goroutine uses it any
// more.
func Acquire(budgetBytes int64) *Table {
	budgetBytes = clampBudget(budgetBytes)
	if t := spare.Load(); t != nil && len(t.buckets) == bucketCount(budgetBytes) && spare.CompareAndSwap(t, nil) {
		t.budget = budgetBytes
		return t
	}
	return New(budgetBytes)
}

// Release makes the table pristine in O(#stripes) and keeps it as the
// spare, replacing any earlier one. A table whose budget exceeds
// DefaultBudget is not kept but left for the garbage collector, so a large
// per-request budget is not pinned once its solve ends. The caller must
// be the table's only user and must not touch it afterwards. Releasing the
// current spare again panics before changing it; a second release after
// Acquire has handed the table out again cannot be detected.
func (t *Table) Release() {
	if spare.Load() == t {
		panic("transpose: table released twice")
	}
	if t.budget > DefaultBudget {
		return
	}
	t.reset(true)
	spare.Store(t)
}

// Budget returns the configured byte budget.
func (t *Table) Budget() int64 { return t.budget }

func (t *Table) stripeFor(idx uint64) *stripe {
	return &t.stripes[idx&(numStripes-1)]
}

// Probe reports whether a stored entry subsumes the state (same key, same
// depth, stored bound ≤ lb): the caller may prune the state as a
// duplicate.
func (t *Table) Probe(lo, hi uint64, depth int32, lb int64) bool {
	idx := (lo ^ hi*0x9e3779b97f4a7c15) & t.mask
	st := t.stripeFor(idx)
	st.mu.Lock()
	defer st.mu.Unlock()
	b := &t.buckets[idx]
	for i := range b {
		s := &b[i]
		if s.lo != lo || s.hi != hi || s.depth != depth {
			continue
		}
		if s.epoch != t.epoch {
			if s.epoch >= t.base {
				st.stale++
			}
			continue
		}
		if s.lb <= lb {
			st.hits++
			return true
		}
	}
	st.misses++
	return false
}

// Store records an expanded state. Same-key entries are refreshed;
// otherwise dead (old-epoch or never-used) slots are claimed first, then
// the depth-preferred replacement runs: a new entry at depth ≤ slot 0's
// displaces it into slot 1; deeper entries replace slot 1 only.
func (t *Table) Store(lo, hi uint64, depth int32, lb int64) {
	idx := (lo ^ hi*0x9e3779b97f4a7c15) & t.mask
	st := t.stripeFor(idx)
	st.mu.Lock()
	b := &t.buckets[idx]
	st.stores++
	entry := slot{lo: lo, hi: hi, lb: lb, depth: depth, epoch: t.epoch}

	// Refresh an existing record of the same state.
	for i := range b {
		s := &b[i]
		if s.lo == lo && s.hi == hi && s.depth == depth && s.epoch == t.epoch {
			if lb < s.lb {
				s.lb = lb
			}
			st.mu.Unlock()
			return
		}
	}
	// Tier placement. Slot 0 is the depth-preferred tier: a dead slot 0 is
	// claimed outright, and a new entry no deeper than the resident one
	// displaces it (the resident falls to slot 1). Everything else lands in
	// the always-replace slot 1.
	switch {
	case b[0].epoch != t.epoch:
		b[0] = entry
		st.live++
	case depth <= b[0].depth:
		if b[1].epoch != t.epoch {
			st.live++
		} else {
			st.evictions++
		}
		b[1] = b[0]
		b[0] = entry
	default:
		if b[1].epoch != t.epoch {
			st.live++
		} else {
			st.evictions++
		}
		b[1] = entry
	}
	st.mu.Unlock()
}

// Reset invalidates every entry in O(#stripes) by bumping the epoch. Old
// entries are reclaimed lazily as their slots are touched.
func (t *Table) Reset() { t.reset(false) }

// reset bumps the epoch under all stripe locks. A pristine reset also
// moves the base up to the new epoch, so the old entries are not even
// counted stale, and zeroes the counters: the table is then
// indistinguishable from a New one without its buckets being touched.
func (t *Table) reset(pristine bool) {
	for i := range t.stripes {
		t.stripes[i].mu.Lock()
	}
	t.epoch++
	if t.epoch == 0 { // uint32 wrap: 0 is the never-used sentinel
		t.epoch, t.base = 1, 1
		clear(t.buckets)
	}
	if pristine {
		t.base = t.epoch
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.live = 0
		if pristine {
			st.hits, st.misses, st.stores, st.evictions, st.stale = 0, 0, 0, 0, 0
		}
		t.stripes[i].mu.Unlock()
	}
}

// Snapshot aggregates the per-stripe counters.
func (t *Table) Snapshot() Stats {
	out := Stats{
		Buckets:  len(t.buckets),
		Budget:   t.budget,
		BytesCap: int64(len(t.buckets)) * bucketBytes,
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		out.Hits += st.hits
		out.Misses += st.misses
		out.Stores += st.stores
		out.Evictions += st.evictions
		out.Stale += st.stale
		out.BytesInUse += st.live * slotBytes
		st.mu.Unlock()
	}
	return out
}
