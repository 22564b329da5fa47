// Package server impersonates repro/internal/server so the fixture can pin
// the serving daemon's split from the experiment harness: the daemon
// fronts every solver, but the serving figures live in cmd/bbexp, so it
// may import neither the harness nor workload generation.
package server

import (
	_ "repro/internal/core"      // allowed: the solver it fronts
	_ "repro/internal/deadline"  // want "layering violation: internal/server may not import internal/deadline"
	_ "repro/internal/exp"       // want "layering violation: internal/server may not import internal/exp"
	_ "repro/internal/gen"       // want "layering violation: internal/server may not import internal/gen"
	_ "repro/internal/taskgraph" // allowed: the task model on the wire
)
