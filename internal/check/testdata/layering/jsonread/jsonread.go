// Package jsonread impersonates repro/internal/jsonread so the fixture can
// pin the one-pass JSON reader at the bottom of the DAG: the taskgraph
// codec and the server's request decoders are built on it, so it may
// import nothing module-internal — not the task model whose records it
// reads, and not the daemon.
package jsonread

import (
	_ "repro/internal/platform"  // want "layering violation: internal/jsonread may not import internal/platform"
	_ "repro/internal/server"    // want "internal/server may only be imported by cmd binaries"
	_ "repro/internal/taskgraph" // want "layering violation: internal/jsonread may not import internal/taskgraph"
)
