package check

import (
	"strings"
)

// LayeringAnalyzer enforces the repository's package DAG. The intent:
//
//   - internal/taskgraph and internal/stats are the foundation; stats
//     imports nothing module-internal, and taskgraph only internal/jsonread,
//     the stdlib-only JSON reader beneath its codec. internal/platform sits
//     directly above and may import only taskgraph (for the Time type).
//   - internal/sched is the scheduling substrate; the search layers
//     (core, bruteforce, edf, listsched, ...) build on it.
//   - internal/core — the branch-and-bound engine — must never depend on
//     workload generation (internal/gen), experiment drivers
//     (internal/exp), or reporting (internal/report): the search must be
//     a pure function of its inputs.
//   - internal/server — the serving daemon — sits above everything and is
//     importable only from cmd/* binaries: the library never depends on
//     the service.
//   - cmd/* binaries may use internal packages but never each other, and
//     examples/* consume only the root facade.
//
// Every internal package must appear in layerAllowed; adding a package
// (or a new edge) is a deliberate act of extending the table, which is
// exactly the review point the analyzer exists to create.
var LayeringAnalyzer = &Analyzer{
	Name: "layering",
	Doc:  "enforce the package dependency DAG (foundation ← sched ← search ← drivers)",
	Run:  runLayering,
}

// layerAllowed maps each module-internal package (path relative to the
// module root) to the internal packages it may import. The table is the
// single source of truth for the dependency DAG.
var layerAllowed = map[string][]string{
	// Foundation: types only, no internal imports. internal/journal is
	// the crash-safe JSONL substrate shared by the experiment runner and
	// the distributed coordinator's checkpoints — pure encoding + fsync,
	// so it sits at the bottom.
	// internal/peer is the shared JSON/HTTP + membership substrate of the
	// replicated subsystems (dist, grid) — stdlib only, policy-free.
	// internal/transpose is the memory-bounded transposition table
	// behind duplicate detection — pure data structure (stdlib
	// sync/atomic only), keyed by opaque 128-bit signatures, so it sits
	// at the bottom beneath the one search layer that probes it.
	// internal/jsonread is the one-pass JSON reader the taskgraph codec and
	// the server's request decoders are built on — stdlib only, it knows
	// no wire type, so it sits beneath the task model itself.
	"internal/jsonread":  {},
	"internal/taskgraph": {"internal/jsonread"},
	"internal/stats":     {},
	"internal/check":     {},
	"internal/journal":   {},
	"internal/peer":      {},
	"internal/transpose": {},

	// Layer 1: directly above the task model.
	"internal/platform":   {"internal/taskgraph"},
	"internal/deadline":   {"internal/taskgraph"},
	"internal/gen":        {"internal/taskgraph"},
	"internal/periodic":   {"internal/taskgraph"},
	"internal/preemptive": {"internal/taskgraph"},
	"internal/analysis":   {"internal/platform", "internal/taskgraph"},

	// Layer 2: the scheduling substrate, and the fault model beside it.
	"internal/sched":  {"internal/platform", "internal/taskgraph"},
	"internal/faults": {"internal/platform", "internal/taskgraph"},

	// Layer 3: schedulers and schedule transforms over the substrate.
	"internal/bruteforce": {"internal/platform", "internal/sched", "internal/taskgraph"},
	"internal/edf":        {"internal/platform", "internal/sched", "internal/taskgraph"},
	"internal/dispatch":   {"internal/faults", "internal/platform", "internal/sched", "internal/taskgraph"},
	"internal/gantt":      {"internal/platform", "internal/sched", "internal/taskgraph"},
	"internal/improve":    {"internal/platform", "internal/sched", "internal/taskgraph"},
	"internal/listsched":  {"internal/platform", "internal/sched", "internal/taskgraph"},
	"internal/sim":        {"internal/faults", "internal/platform", "internal/sched", "internal/taskgraph"},

	// Layer 4: the branch-and-bound engine. Deliberately excludes
	// internal/gen, internal/exp, internal/report and the other solvers.
	"internal/core": {"internal/edf", "internal/platform", "internal/sched", "internal/taskgraph", "internal/transpose"},

	// internal/hetero is the heterogeneous-platform scenario layer: spec
	// validation, canonical platform encoding, and the partitioned
	// (assign-then-EDF) search mode. It branches over assignments and
	// evaluates them through the EDF simulation, so it sits beside core —
	// above the substrate and schedulers, below the harnesses — and like
	// core it must never see workload generation or drivers.
	"internal/hetero": {"internal/edf", "internal/platform", "internal/sched", "internal/taskgraph"},

	// Layer 5: harnesses over the engine. internal/dist — the distributed
	// fabric — may use the engine and substrate but never the experiment
	// drivers or the serving daemon's internals: subproblems must stay
	// pure (graph + prefix + rules), with no experiment or service state
	// on the wire.
	"internal/dist": {
		"internal/core", "internal/journal", "internal/peer", "internal/platform",
		"internal/sched", "internal/taskgraph",
	},

	// internal/grid is the multi-tenant serving fabric: consistent-hash
	// cache peering + weighted-fair-queueing admission. It is transport
	// and queueing policy only — it moves opaque cached bytes and admits
	// requests, so it may NOT touch the solver stack (core/sched/...);
	// the serving daemon composes grid with the solvers.
	"internal/grid":  {"internal/peer"},
	"internal/trace": {"internal/core", "internal/taskgraph"},
	"internal/rescue": {
		"internal/core", "internal/dispatch", "internal/faults", "internal/listsched",
		"internal/platform", "internal/sched", "internal/taskgraph",
	},
	"internal/exp": {
		"internal/core", "internal/deadline", "internal/edf", "internal/faults",
		"internal/gen", "internal/hetero", "internal/journal", "internal/listsched",
		"internal/periodic", "internal/platform", "internal/rescue", "internal/stats",
		"internal/taskgraph",
	},
	"internal/fuzzcheck": {
		"internal/analysis", "internal/bruteforce", "internal/core", "internal/deadline",
		"internal/dispatch", "internal/edf", "internal/faults", "internal/gen",
		"internal/hetero", "internal/improve", "internal/listsched", "internal/platform",
		"internal/rescue", "internal/sched", "internal/taskgraph",
	},
	"internal/portfolio": {
		"internal/analysis", "internal/core", "internal/improve", "internal/listsched",
		"internal/platform", "internal/sched", "internal/taskgraph",
	},
	"internal/report": {
		"internal/analysis", "internal/core", "internal/dispatch", "internal/edf",
		"internal/gantt", "internal/improve", "internal/listsched", "internal/platform",
		"internal/sched", "internal/taskgraph",
	},

	// Layer 6: the serving daemon over the facade-level packages. It may
	// import broadly (it fronts every solver), but nothing outside cmd/*
	// may import IT — enforced as a universal rule in runLayering, so that
	// no library or facade code can grow a dependency on the service. It
	// serves solves, not experiments: the serving figures live in
	// cmd/bbexp, so the daemon links neither the experiment harness nor
	// workload generation.
	"internal/server": {
		"internal/analysis", "internal/core", "internal/dist", "internal/faults",
		"internal/grid", "internal/hetero", "internal/jsonread", "internal/listsched",
		"internal/peer", "internal/platform", "internal/portfolio", "internal/rescue",
		"internal/sched", "internal/taskgraph",
	},
}

func runLayering(pass *Pass) {
	rel := pass.RelPath()
	var allowed map[string]bool
	known := false
	if allowList, ok := layerAllowed[rel]; ok {
		known = true
		allowed = make(map[string]bool, len(allowList))
		for _, a := range allowList {
			allowed[pass.Mod.Path+"/"+a] = true
		}
	}

	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != pass.Mod.Path && !strings.HasPrefix(path, pass.Mod.Path+"/") {
				continue // external or stdlib
			}
			impRel := strings.TrimPrefix(strings.TrimPrefix(path, pass.Mod.Path), "/")

			// Universal rules first: nothing imports cmd/* or examples/*.
			if strings.HasPrefix(impRel, "cmd/") || strings.HasPrefix(impRel, "examples/") {
				pass.Reportf(spec.Pos(), "import of %s: cmd and examples packages must not be imported", path)
				continue
			}
			// The serving layer is a leaf: only cmd binaries (and the
			// package itself, e.g. its tests) may import it. The root
			// facade is deliberately included in the ban — the library
			// must never depend on the daemon.
			if impRel == "internal/server" && rel != "internal/server" && !strings.HasPrefix(rel, "cmd/") {
				pass.Reportf(spec.Pos(), "import of %s: internal/server may only be imported by cmd binaries", path)
				continue
			}

			switch {
			case rel == "":
				// The root facade may import any internal package.
			case strings.HasPrefix(rel, "examples/"):
				if path != pass.Mod.Path {
					pass.Reportf(spec.Pos(), "examples must use only the root facade %s, not %s", pass.Mod.Path, path)
				}
			case strings.HasPrefix(rel, "cmd/"):
				// cmd/* may import internal packages (cross-cmd imports were
				// rejected above).
			case known:
				if !allowed[path] {
					pass.Reportf(spec.Pos(), "layering violation: %s may not import %s (extend the DAG table in internal/check/layering.go if this edge is intended)", rel, impRel)
				}
			}
		}
		if rel != "" && !known && !strings.HasPrefix(rel, "cmd/") && !strings.HasPrefix(rel, "examples/") {
			pass.Reportf(f.Name.Pos(), "package %s is not registered in the bbvet layering table (internal/check/layering.go)", rel)
			break // one report per package is enough
		}
	}
}
