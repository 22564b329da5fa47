//go:build bbdebug

package core

// heavyBuild reports that sched's O(n)-per-mutation invariant
// assertions are compiled in. scripts/check.sh runs this package with
// -race -tags bbdebug, which multiplies every Place/Undo by roughly two
// orders of magnitude; the dedup soundness tests (see dedupSuiteScale)
// and the duplicate-free tests shrink their workloads accordingly while
// asserting the same properties.
const heavyBuild = true
