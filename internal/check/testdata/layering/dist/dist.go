// Package dist impersonates repro/internal/dist so the fixture can pin
// the distributed fabric's position in the DAG: it may build on the
// engine and substrate, but must never reach into the experiment drivers
// or the serving daemon — subproblems on the wire stay pure — nor into
// the transposition table, which the fleet does not run.
package dist

import (
	_ "repro/internal/core"      // allowed: the engine the workers run
	_ "repro/internal/exp"       // want "layering violation: internal/dist may not import internal/exp"
	_ "repro/internal/platform"  // allowed: substrate
	_ "repro/internal/sched"     // allowed: substrate
	_ "repro/internal/server"    // want "internal/server may only be imported by cmd binaries"
	_ "repro/internal/taskgraph" // allowed: foundation
	_ "repro/internal/transpose" // want "layering violation: internal/dist may not import internal/transpose"
)
