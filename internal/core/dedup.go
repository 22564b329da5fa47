package core

import (
	"repro/internal/transpose"
)

// dedupTable resolves the transposition table for a run with Params.Dedup:
// a private table sized by DedupBudget — the table an earlier solve
// released, when its size fits (transpose.Acquire).
// Returns nil when dedup is off.
func dedupTable(p Params) *transpose.Table {
	if !p.Dedup {
		return nil
	}
	return transpose.Acquire(p.DedupBudget)
}

// releaseTable hands a run's private table back for the next solve once
// the run is over and its stats are taken. The table of a run whose
// search failed is not recycled: a recovered panic may have left a stripe
// lock held.
func releaseTable(tt *transpose.Table, failed bool) {
	if tt == nil || failed {
		return
	}
	tt.Release()
}

// fillTableStats copies the table gauges into the run's Stats. For shared
// tables the numbers are cumulative across all users of the table (see the
// Stats field docs).
func fillTableStats(stats *Stats, tt *transpose.Table) {
	if tt == nil {
		return
	}
	s := tt.Snapshot()
	stats.TableHits = s.Hits
	stats.TableEvictions = s.Evictions
	stats.TableStale = s.Stale
	stats.TableBytesInUse = s.BytesInUse
	stats.TableBudget = s.Budget
}
