// Package transpose impersonates repro/internal/transpose so the fixture
// can pin the transposition table at the bottom of the DAG: it is a pure
// data structure keyed by opaque 128-bit signatures, so it may import
// nothing module-internal — not even the foundation. The search kernel
// (core) probes it; it must never know what it stores keys for.
package transpose

import (
	_ "repro/internal/core"      // want "layering violation: internal/transpose may not import internal/core"
	_ "repro/internal/sched"     // want "layering violation: internal/transpose may not import internal/sched"
	_ "repro/internal/server"    // want "internal/server may only be imported by cmd binaries"
	_ "repro/internal/taskgraph" // want "layering violation: internal/transpose may not import internal/taskgraph"
)
