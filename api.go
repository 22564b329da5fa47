package parabb

import (
	"context"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/dispatch"
	"repro/internal/dist"
	"repro/internal/edf"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/gantt"
	"repro/internal/gen"
	"repro/internal/hetero"
	"repro/internal/improve"
	"repro/internal/listsched"
	"repro/internal/periodic"
	"repro/internal/platform"
	"repro/internal/portfolio"
	"repro/internal/preemptive"
	"repro/internal/rescue"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/taskgraph"
)

// Model types.
type (
	// Time is the discrete time unit used throughout the library.
	Time = taskgraph.Time
	// TaskID identifies a task within one Graph.
	TaskID = taskgraph.TaskID
	// Task is the static description ⟨c, φ, d, T⟩ of one real-time task.
	Task = taskgraph.Task
	// Channel is a communication channel on a precedence arc.
	Channel = taskgraph.Channel
	// Graph is the directed acyclic task graph.
	Graph = taskgraph.Graph
	// Platform is the homogeneous shared-bus multiprocessor.
	Platform = platform.Platform
	// Proc identifies a processor.
	Proc = platform.Proc
	// Schedule maps tasks to (processor, start, finish).
	Schedule = sched.Schedule
	// Placement is one task's slot in a Schedule.
	Placement = sched.Placement
	// Fingerprint is the relabeling-invariant digest of a Graph
	// (Graph.Fingerprint computes it). It is built on 1-WL color
	// refinement, so it groups isomorphic instances but is not an exact
	// identity; use CanonicalGraph's codec bytes when two distinct
	// instances must never be confused.
	Fingerprint = taskgraph.Fingerprint
)

// RelabelGraph returns a copy of g with task IDs renumbered by the given
// bijection (perm[old] = new). Fingerprints are invariant under it.
func RelabelGraph(g *Graph, perm []TaskID) (*Graph, error) {
	return taskgraph.Relabel(g, perm)
}

// CanonicalGraph returns g relabeled into canonical task order together
// with the permutation used (perm[old] = new). The canonical graph's codec
// bytes are an exact instance identity that is insensitive to the
// requester's task numbering — the serving layer keys its result cache on
// them.
func CanonicalGraph(g *Graph) (*Graph, []TaskID, error) {
	return g.Canonical()
}

// Solver types.
type (
	// Params is the Kohler–Steiglitz parameter tuple of the B&B solver.
	Params = core.Params
	// ParallelParams configures the multi-core solver.
	ParallelParams = core.ParallelParams
	// Result is a solver outcome: schedule, cost, optimality, statistics.
	Result = core.Result
	// Stats are the search-effort counters of one run.
	Stats = core.Stats
	// ResourceBounds is RB = ⟨TIMELIMIT, MAXSZAS, MAXSZDB⟩.
	ResourceBounds = core.ResourceBounds
	// SelectionRule is the vertex selection rule S.
	SelectionRule = core.SelectionRule
	// BranchingRule is the vertex branching rule B.
	BranchingRule = core.BranchingRule
	// BoundFunc is the lower-bound cost function L.
	BoundFunc = core.BoundFunc
	// ChildOrder controls how freshly generated children enter the
	// active set.
	ChildOrder = core.ChildOrder
	// LLBTieBreak selects the plateau order of the LLB heap.
	LLBTieBreak = core.LLBTieBreak
)

// Workload and experiment types.
type (
	// WorkloadParams is the §4.1 random-workload specification.
	WorkloadParams = gen.Params
	// WorkloadGenerator draws random task graphs.
	WorkloadGenerator = gen.Generator
	// ExperimentConfig is the §5 run protocol.
	ExperimentConfig = exp.Config
	// Figure is an evaluated experiment (series of aggregated points).
	Figure = exp.Figure
	// PeriodicExpansion is a hyperperiod-unrolled periodic task system.
	PeriodicExpansion = periodic.Expansion
)

// Re-exported enumerations of the parameter tuple.
const (
	SelectLIFO = core.SelectLIFO
	SelectLLB  = core.SelectLLB
	SelectFIFO = core.SelectFIFO

	BranchBFn = core.BranchBFn
	BranchDF  = core.BranchDF
	BranchBF1 = core.BranchBF1

	BoundLB0  = core.BoundLB0
	BoundLB1  = core.BoundLB1
	BoundNone = core.BoundNone

	TieOldest  = core.TieOldest
	TieDeepest = core.TieDeepest

	ChildrenByLowerBound = core.ChildrenByLowerBound
	ChildrenAsGenerated  = core.ChildrenAsGenerated

	UpperBoundEDF   = core.UpperBoundEDF
	UpperBoundFixed = core.UpperBoundFixed

	// NoProc marks an unassigned task; NoTask an absent task reference.
	NoProc = platform.NoProc
	NoTask = taskgraph.NoTask

	// Infinity dominates every legitimate schedule instant.
	Infinity = taskgraph.Infinity
)

// NewGraph returns an empty task graph with a capacity hint of n tasks.
func NewGraph(n int) *Graph { return taskgraph.New(n) }

// LoadGraph reads a JSON-encoded task graph.
func LoadGraph(r io.Reader) (*Graph, error) { return taskgraph.ReadJSON(r) }

// LoadGraphFile reads a JSON-encoded task graph from a file.
func LoadGraphFile(path string) (*Graph, error) { return taskgraph.LoadFile(path) }

// NewPlatform returns the paper's shared-bus platform with m processors and
// a nominal communication delay of one time unit per data item.
func NewPlatform(m int) Platform { return platform.New(m) }

// Solve runs the sequential parametrized branch-and-bound search. The zero
// Params is the paper's recommended exact configuration.
func Solve(g *Graph, p Platform, params Params) (Result, error) {
	return core.Solve(g, p, params)
}

// SolveParallel runs the multi-core branch-and-bound search.
func SolveParallel(g *Graph, p Platform, params ParallelParams) (Result, error) {
	return core.SolveParallel(g, p, params)
}

// SolveIDA runs the cost-bounded iterative-deepening search: exact results
// with O(n) memory (no active set at all), trading bounded re-expansion of
// shallow vertices — the memory-frugal third regime beside LIFO and LLB.
func SolveIDA(g *Graph, p Platform, params Params) (Result, error) {
	return core.SolveIDA(g, p, params)
}

// EDF runs the greedy Earliest-Deadline-First baseline of §4.4 and returns
// its schedule and maximum lateness.
func EDF(g *Graph, p Platform) (*Schedule, Time, error) {
	res, err := edf.Schedule(g, p)
	if err != nil {
		return nil, 0, err
	}
	return res.Schedule, res.Lmax, nil
}

// DefaultWorkload returns the paper's §4.1 workload parameters.
func DefaultWorkload() WorkloadParams { return gen.Defaults() }

// NewWorkload returns a deterministic random task-graph generator.
func NewWorkload(p WorkloadParams, seed int64) *WorkloadGenerator { return gen.New(p, seed) }

// SlicingPolicy selects the deadline-assignment rule; see the constants.
type SlicingPolicy = deadline.Policy

// Slicing policies for AssignDeadlines.
const (
	// SliceEqualSlack gives every task on a path an equal slack share
	// (the experiment default).
	SliceEqualSlack = deadline.EqualSlack
	// SliceProportional stretches every window by the laxity factor.
	SliceProportional = deadline.Proportional
)

// AssignDeadlines derives per-task arrival times and deadlines by the §4.2
// end-to-end slicing with the given laxity ratio and policy, in place.
func AssignDeadlines(g *Graph, laxity float64, pol SlicingPolicy) error {
	return deadline.Assign(g, laxity, pol)
}

// RandomWorkload draws one graph and assigns deadlines — the full §4.1/§4.2
// pipeline in one call.
func RandomWorkload(p WorkloadParams, seed int64) (*Graph, error) {
	g := gen.New(p, seed).Graph()
	if err := deadline.Assign(g, p.Laxity, deadline.EqualSlack); err != nil {
		return nil, err
	}
	return g, nil
}

// Unroll expands a periodic task system over one hyperperiod into an
// ordinary task graph schedulable by Solve.
func Unroll(g *Graph) (*PeriodicExpansion, error) { return periodic.Unroll(g) }

// PeriodicParams specifies a UUniFast periodic task set.
type PeriodicParams = gen.PeriodicParams

// DefaultPeriodic returns a harmonic-menu UUniFast specification.
func DefaultPeriodic() PeriodicParams { return gen.DefaultPeriodic() }

// Utilization returns Σ c_i/T_i over a graph's periodic tasks.
func Utilization(g *Graph) float64 { return gen.Utilization(g) }

// Heterogeneous-platform scenario types. A Platform's Speed and Affinity
// tables (nil = the paper's homogeneous model) are threaded through every
// solver; these wrap the scenario layer's own entry points.
type (
	// ReleaseParams specifies jittered or sporadic release generation
	// (WorkloadGenerator.Releases).
	ReleaseParams = gen.ReleaseParams
	// PartitionedOptions bounds a partitioned solve.
	PartitionedOptions = hetero.Options
	// PartitionedResult is a partitioned solve's outcome.
	PartitionedResult = hetero.Result
	// PlatformSpecError is a structured platform-validation failure.
	PlatformSpecError = hetero.SpecError
)

// ValidatePlatformSpec checks a platform's speed-factor and affinity
// tables against an n-task graph; violations are *PlatformSpecError.
func ValidatePlatformSpec(p Platform, n int) error { return hetero.ValidateSpec(p, n) }

// UnrollReleases expands a periodic task graph over an explicit release
// plan (one absolute-release list per task, e.g. from
// WorkloadGenerator.Releases) into an ordinary one-shot graph.
func UnrollReleases(g *Graph, releases [][]Time) (*PeriodicExpansion, error) {
	return periodic.UnrollReleases(g, releases)
}

// SolvePartitioned runs the partitioned-scheduling mode: branch-and-bound
// over task→processor assignments with per-processor EDF dispatch.
// Cancellation or a time/node limit returns the best incumbent with
// Optimal=false.
func SolvePartitioned(ctx context.Context, g *Graph, p Platform, opt PartitionedOptions) (PartitionedResult, error) {
	return hetero.SolvePartitioned(ctx, g, p, opt)
}

// DefaultExperiment returns the paper's §5 experiment protocol;
// QuickExperiment a reduced one for smoke runs.
func DefaultExperiment() ExperimentConfig { return exp.Default() }

// QuickExperiment returns a reduced experiment protocol.
func QuickExperiment() ExperimentConfig { return exp.Quick() }

// RunExperiment evaluates one of the experiments Experiments lists, by ID
// ("fig3a", "fault-sweep", ...).
func RunExperiment(id string, cfg ExperimentConfig) (Figure, error) {
	runner, err := exp.ByName(exp.Figures(), id)
	if err != nil {
		return Figure{}, err
	}
	return runner(cfg)
}

// Experiments lists the available experiment IDs in presentation order.
func Experiments() []string { return exp.IDs(exp.Figures()) }

// ImproveOptions tunes the local-search post-optimizer.
type ImproveOptions = improve.Options

// ImproveResult reports a local-search outcome.
type ImproveResult = improve.Result

// Improve hill-climbs from any complete valid schedule (EDF output, a
// truncated B&B incumbent, a hand-written table) over task reassignments
// and adjacent reorderings; the result is never worse than the input.
func Improve(s *Schedule, opts ImproveOptions) (ImproveResult, error) {
	return improve.Improve(s, opts)
}

// SimReport is the outcome of a discrete-event schedule execution.
type SimReport = sim.Report

// Simulate executes a complete schedule on the discrete-event platform
// simulator (explicit serializing shared bus) and reports real message
// deliveries, utilizations, and any violations of the nominal-delay model.
func Simulate(s *Schedule) (*SimReport, error) { return sim.Run(s) }

// ListPolicy selects a list-scheduling priority rule.
type ListPolicy = listsched.Policy

// List-scheduling policies.
const (
	ListHLFET      = listsched.HLFET
	ListLeastSlack = listsched.LeastSlack
	ListEDF        = listsched.EDF
)

// ListSchedule runs a polynomial-time list scheduler with the given
// priority policy over the §4.3 operation.
func ListSchedule(g *Graph, p Platform, pol ListPolicy) (*Schedule, Time, error) {
	res, err := listsched.Schedule(g, p, pol)
	if err != nil {
		return nil, 0, err
	}
	return res.Schedule, res.Lmax, nil
}

// AnalysisReport carries a-priori workload bounds (demand + path).
type AnalysisReport = analysis.Report

// Analyze computes certified a-priori bounds for a workload on a platform:
// utilization, the interval-demand and precedence-path lower bounds on the
// optimal Lmax, and an infeasibility certificate when the bound is
// positive.
func Analyze(g *Graph, p Platform) (*AnalysisReport, error) {
	return analysis.Analyze(g, p)
}

// PortfolioOptions configures the anytime pipeline; PortfolioResult its
// outcome.
type (
	PortfolioOptions = portfolio.Options
	PortfolioResult  = portfolio.Result
)

// SolveAnytime runs the full pipeline: certified bounds → greedy portfolio
// → local search → warm-started exact search under the given budget. The
// result is never worse than the cheapest stage and reports the optimality
// status (proven, bound-matched, or the remaining gap).
func SolveAnytime(g *Graph, p Platform, opts PortfolioOptions) (PortfolioResult, error) {
	return portfolio.Solve(g, p, opts)
}

// SolveAnytimeContext is SolveAnytime with the exact stage additionally
// bound by ctx: cancellation stops the search early and the pipeline still
// returns its best incumbent so far.
func SolveAnytimeContext(ctx context.Context, g *Graph, p Platform, opts PortfolioOptions) (PortfolioResult, error) {
	return portfolio.SolveContext(ctx, g, p, opts)
}

// PreemptiveResult is an optimal preemptive single-machine schedule.
type PreemptiveResult = preemptive.Result

// PreemptiveSchedule computes the optimal preemptive single-machine
// schedule for 1|pmtn,prec,r_j|Lmax (Baker et al., the paper's reference
// [12] — the commutative scheduling operation its related work builds on).
func PreemptiveSchedule(g *Graph) (*PreemptiveResult, error) {
	return preemptive.Schedule(g)
}

// Termination and cancellation. Every Result carries a TermReason saying
// why the search stopped; the context-aware entry points below make any
// run cancelable while preserving the anytime contract (the best incumbent
// found so far is always returned).
type (
	// TermReason is the typed cause of search termination.
	TermReason = core.TermReason
	// PanicError wraps a panic recovered inside the solver, with the
	// offending goroutine's stack.
	PanicError = core.PanicError
)

// Termination reasons.
const (
	TermExhausted    = core.TermExhausted
	TermGlobalBound  = core.TermGlobalBound
	TermResourceLoss = core.TermResourceLoss
	TermTimeLimit    = core.TermTimeLimit
	TermCanceled     = core.TermCanceled
	TermPanic        = core.TermPanic
)

// SolveContext is Solve with cooperative cancellation: when ctx is
// canceled the search stops at the next expansion and returns the best
// incumbent found so far with Reason TermCanceled.
func SolveContext(ctx context.Context, g *Graph, p Platform, params Params) (Result, error) {
	return core.SolveContext(ctx, g, p, params)
}

// SolveParallelContext is SolveParallel with cooperative cancellation.
func SolveParallelContext(ctx context.Context, g *Graph, p Platform, params ParallelParams) (Result, error) {
	return core.SolveParallelContext(ctx, g, p, params)
}

// Distributed search. A Fleet coordinates one branch-and-bound solve at a
// time across worker processes: the root is expanded into a frontier of
// subtree slices, each shipped over JSON/HTTP as a self-contained
// subproblem (canonical graph + placement prefix), with incumbent
// improvements broadcast fleet-wide, idle workers stealing unleased
// slices, and slices lost to a dead worker re-dispatched after its lease
// expires. DESIGN.md ("Distributed search") has the soundness argument;
// cmd/bbworker is the stock worker binary and bbserved -distributed the
// stock coordinator.
type (
	// Fleet is the coordinator side of the distributed fabric.
	Fleet = dist.Fleet
	// FleetConfig tunes frontier size, lease TTLs and steal behaviour.
	FleetConfig = dist.Config
	// FleetCounters is a snapshot of the fleet-level occurrence counters
	// (dispatched/stolen/re-dispatched slices, broadcasts, evictions).
	FleetCounters = dist.CountersSnapshot
	// FleetWorker is the execution side: it leases slices and runs the
	// sequential kernel on each under the shared incumbent.
	FleetWorker = dist.Worker
	// FleetWorkerConfig points a worker at a coordinator.
	FleetWorkerConfig = dist.WorkerConfig
	// Frontier is a depth-bounded expansion of the search-tree root into
	// disjoint subtree slices that exactly partition the remaining search.
	Frontier = core.Frontier
	// FrontierSlice is one unexpanded subtree, identified by its
	// placement prefix.
	FrontierSlice = core.FrontierSlice
	// IncumbentLink connects a prefix-restricted solve to an external
	// shared incumbent (Params.Link).
	IncumbentLink = core.IncumbentLink
)

// NewFleet returns an idle coordinator; mount its Handler and point
// workers at it, then call Solve.
func NewFleet(cfg FleetConfig) *Fleet { return dist.NewFleet(cfg) }

// NewFleetWorker returns a worker for the given coordinator; Run blocks
// until the context is canceled.
func NewFleetWorker(cfg FleetWorkerConfig) *FleetWorker { return dist.NewWorker(cfg) }

// Durability and elasticity sentinels of the distributed fabric.
var (
	// ErrFleetResumable marks a journaled solve that was interrupted
	// (context canceled mid-search) with its checkpoint journal intact:
	// a fresh Fleet with the same FleetConfig.JournalPath can finish it
	// with Resume.
	ErrFleetResumable = dist.ErrResumable
	// ErrFleetWorkerDrained is returned by FleetWorker.Run after a clean
	// coordinator-initiated drain: the in-flight slice finished, the rest
	// of the lease was handed back.
	ErrFleetWorkerDrained = dist.ErrDrained
)

// EnumerateFrontier expands the search-tree root breadth-first until at
// least target unexpanded slices exist (or the tree is exhausted). The
// slices partition the search exactly: solving each under the frontier's
// incumbent and taking the best result is equivalent to the sequential
// solve.
func EnumerateFrontier(g *Graph, p Platform, params Params, target int) (Frontier, error) {
	return core.EnumerateFrontier(g, p, params, target)
}

// Fault injection and recovery.
type (
	// Fault is one injected fault: a fail-stop processor failure or a
	// transient execution-time overrun.
	Fault = faults.Fault
	// FaultScenario is a set of faults injected into one execution.
	FaultScenario = faults.Scenario
	// FaultModel draws random fault scenarios deterministically from a seed.
	FaultModel = faults.Model
	// FaultOutcome is the realized execution of a schedule under faults:
	// per-task fates, realized finish times, and post-fault lateness.
	FaultOutcome = dispatch.FaultOutcome
	// RecoveryOptions bounds the rescheduling effort after a fault.
	RecoveryOptions = rescue.Options
	// RecoveryOutcome reports a recovery: the residual problem, the
	// recovered plan, and the degradation metrics.
	RecoveryOutcome = rescue.Outcome
)

// Fault kinds.
const (
	FaultProcFailure = faults.ProcFailure
	FaultExecOverrun = faults.ExecOverrun
)

// NewFaultModel returns a deterministic seeded fault generator.
func NewFaultModel(seed int64) *FaultModel { return faults.NewModel(seed) }

// ExecuteFaulty runs a schedule work-conservingly under a fault scenario:
// surviving processors execute their assigned tasks in table order at the
// earliest realizable instants, tasks on failed processors are killed or
// never started, and the outcome reports every task's fate.
func ExecuteFaulty(s *Schedule, sc *FaultScenario, actual []Time) (*FaultOutcome, error) {
	return dispatch.ExecuteFaulty(s, sc, actual)
}

// Recover replays a schedule under a fault scenario and re-schedules
// everything the faults destroyed: completed work is frozen, the residual
// problem (unfinished tasks, surviving processors, already-delivered data)
// is re-solved by B&B under opt.Budget, and the guaranteed list-scheduling
// fallback is used whenever the budget expires or is zero. The outcome is
// never worse than the fallback and reports post-fault lateness, deadline
// misses, and recovery latency.
func Recover(ctx context.Context, s *Schedule, sc *FaultScenario, actual []Time, opt RecoveryOptions) (*RecoveryOutcome, error) {
	return rescue.Recover(ctx, s, sc, actual, opt)
}

// ExperimentJournal makes experiment sweeps crash-safe; see OpenJournal.
type ExperimentJournal = exp.Journal

// OpenJournal opens (resume) or truncates (fresh) the crash-safe JSONL
// journal at path. Attach it to an ExperimentConfig and an interrupted
// sweep resumed under the same protocol is byte-identical to an
// uninterrupted one.
func OpenJournal(path string, resume bool) (*ExperimentJournal, error) {
	return exp.OpenJournal(path, resume)
}

// GanttText renders a schedule as a terminal chart of the given width.
func GanttText(s *Schedule, width int) string { return gantt.Text(s, width) }

// GanttSVG renders a schedule as a standalone SVG document.
func GanttSVG(s *Schedule) string { return gantt.SVG(s) }

// GanttJSON renders a schedule as a JSON trace.
func GanttJSON(s *Schedule) ([]byte, error) { return gantt.JSON(s) }
