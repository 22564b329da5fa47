package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:9091".
	Coordinator string

	// Name labels this worker in coordinator logs.
	Name string

	// Poll is the idle polling interval when the coordinator has no work
	// (default 100ms; the coordinator's retry hint wins when longer).
	Poll time.Duration

	// MaxLease asks for at most this many slices per lease (0 = the
	// coordinator's default).
	MaxLease int

	// Client is the HTTP client to use (default: 10s timeout).
	Client *http.Client

	// SliceDelay, when positive, sleeps before each leased slice is
	// solved. It exists for experiments: one delayed worker turns a
	// homogeneous loopback fleet into a straggler scenario, so the
	// coordinator's speculative re-dispatch can be measured against a
	// static assignment.
	SliceDelay time.Duration

	// Logf, when non-nil, receives worker diagnostics.
	Logf func(format string, args ...any)
}

// Worker is the execution side of the fabric: it leases frontier slices,
// solves each with the sequential kernel under the shared incumbent
// (Prefix + IncumbentLink), publishes improvements immediately, and
// reports every slice outcome back.
type Worker struct {
	cfg       WorkerConfig
	rpc       *peer.Client
	id        int64
	heartbeat time.Duration

	// Cached solve: one coordinator runs one solve at a time, so the
	// graph travels once per solve, not once per lease.
	solveID uint64
	g       *taskgraph.Graph
	plat    platform.Platform
	params  core.Params

	// best mirrors the globally best incumbent cost; refreshed by every
	// coordinator response and lowered by local improvements. The solver
	// polls it through the IncumbentLink.
	best atomic.Int64

	// draining latches once any coordinator response carries the drain
	// flag: finish the in-flight slice, release the rest, exit.
	draining atomic.Bool

	// SlicesSolved counts completed slice solves (test/diagnostic hook).
	SlicesSolved atomic.Int64
}

// NewWorker returns an unconnected worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Worker{
		cfg:       cfg,
		rpc:       &peer.Client{Base: cfg.Coordinator, HTTP: cfg.Client},
		heartbeat: time.Second,
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// post sends one JSON request to the coordinator.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	return w.rpc.Post(ctx, path, in, out)
}

// lowerBest lowers the incumbent mirror to cost if it improves it.
func (w *Worker) lowerBest(cost int64) {
	for {
		cur := w.best.Load()
		if cost >= cur || w.best.CompareAndSwap(cur, cost) {
			return
		}
	}
}

// Run joins the coordinator and processes leases until ctx is canceled
// or the coordinator drains this worker. Transient coordinator failures
// are retried; Run returns ctx.Err() on cancellation and ErrDrained
// after a clean drain (in-flight slice finished, remainder released).
func (w *Worker) Run(ctx context.Context) error {
	for {
		var join JoinResponse
		err := w.post(ctx, "/dist/v1/join", JoinRequest{Name: w.cfg.Name, WorkerID: w.id}, &join)
		if err == nil {
			w.id = join.WorkerID
			if join.HeartbeatMS > 0 {
				w.heartbeat = time.Duration(join.HeartbeatMS) * time.Millisecond
			}
			if join.Draining {
				w.draining.Store(true)
			}
			w.logf("dist: joined %s as worker %d (heartbeat %v)", w.cfg.Coordinator, w.id, w.heartbeat)
			break
		}
		w.logf("dist: join failed: %v", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.cfg.Poll):
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			w.logf("dist: worker %d drained", w.id)
			return ErrDrained
		}
		var lease LeaseResponse
		err := w.post(ctx, "/dist/v1/lease", LeaseRequest{
			WorkerID: w.id, Name: w.cfg.Name, HaveSolve: w.solveID, Max: w.cfg.MaxLease,
		}, &lease)
		if err != nil {
			w.logf("dist: lease failed: %v", err)
			w.sleep(ctx, w.cfg.Poll)
			continue
		}
		if lease.Drain {
			w.draining.Store(true)
		}
		if lease.None {
			if w.draining.Load() {
				continue // top of loop exits with ErrDrained
			}
			wait := w.cfg.Poll
			if retry := time.Duration(lease.RetryMS) * time.Millisecond; retry > wait {
				wait = retry
			}
			w.sleep(ctx, wait)
			continue
		}
		if err := w.adoptLease(&lease); err != nil {
			w.logf("dist: bad lease: %v", err)
			w.sleep(ctx, w.cfg.Poll)
			continue
		}
		w.best.Store(lease.Incumbent)
		abandon := false
		for i, sl := range lease.Slices {
			if abandon {
				break
			}
			if ctx.Err() != nil || w.draining.Load() {
				// Canceled or draining before starting this slice: hand the
				// rest of the batch back so it re-queues immediately instead
				// of waiting out the lease TTL.
				w.release(lease.Slices[i:])
				break
			}
			abandon = w.solveSlice(ctx, sl)
		}
	}
}

// release hands unstarted slices back to the coordinator. Best-effort
// with its own short deadline: the worker may be exiting because its own
// ctx is already canceled, and a failed release just means the slices
// come back via lease-TTL eviction instead.
func (w *Worker) release(slices []WireSlice) {
	if len(slices) == 0 {
		return
	}
	ids := make([]int, len(slices))
	for i, sl := range slices {
		ids[i] = sl.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var resp ReleaseResponse
	if err := w.post(ctx, "/dist/v1/release", ReleaseRequest{WorkerID: w.id, SolveID: w.solveID, Slices: ids}, &resp); err != nil {
		w.logf("dist: release of %d slices failed (TTL eviction will recover them): %v", len(ids), err)
		return
	}
	w.logf("dist: released %d slices (%d re-queued)", len(ids), resp.Requeued)
}

// adoptLease installs the lease's solve (decoding the graph when it
// changed since the last lease).
func (w *Worker) adoptLease(lease *LeaseResponse) error {
	if lease.SolveID == w.solveID && w.g != nil {
		return nil
	}
	g, plat, p, err := decodeSolve(lease)
	if err != nil {
		return err
	}
	w.solveID, w.g, w.plat, w.params = lease.SolveID, g, plat, p
	w.logf("dist: solve %d: %d tasks on %d procs, params %v", lease.SolveID, g.NumTasks(), lease.Procs, p)
	return nil
}

// decodeSolve decodes the solve a lease ships: the canonical graph, the
// platform and the search params.
func decodeSolve(lease *LeaseResponse) (*taskgraph.Graph, platform.Platform, core.Params, error) {
	var plat platform.Platform
	var p core.Params
	if lease.Graph == nil {
		return nil, plat, p, fmt.Errorf("new solve %d arrived without graph bytes", lease.SolveID)
	}
	g := new(taskgraph.Graph)
	if err := json.Unmarshal(lease.Graph, g); err != nil {
		return nil, plat, p, fmt.Errorf("graph decode: %w", err)
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, plat, p, err
	}
	p, err := lease.Params.Params()
	if err != nil {
		return nil, plat, p, err
	}
	plat = platform.New(lease.Procs)
	if err := plat.Validate(); err != nil {
		return nil, plat, p, err
	}
	return g, plat, p, nil
}

// solveSlice runs one frontier slice to completion under the shared
// incumbent and reports the outcome. Returns true when the coordinator
// abandoned the solve (stop working on this lease).
func (w *Worker) solveSlice(ctx context.Context, sl WireSlice) bool {
	if w.cfg.SliceDelay > 0 {
		w.sleep(ctx, w.cfg.SliceDelay)
		if ctx.Err() != nil {
			return false
		}
	}
	slCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The publisher goroutine ships improvements asynchronously so the
	// search never blocks on the network; latest-wins, and the final
	// report re-carries the best sequence synchronously as the backstop.
	var (
		pubMu      sync.Mutex
		latest     *IncumbentRequest
		lastCost   = taskgraph.Time(taskgraph.Infinity)
		lastSeq    []sched.Placement
		notify     = make(chan struct{}, 1)
		stop       = make(chan struct{})
		goroutines sync.WaitGroup
	)
	goroutines.Add(2)
	go func() { // publisher
		defer goroutines.Done()
		for {
			select {
			case <-stop:
				return
			case <-notify:
				pubMu.Lock()
				req := latest
				latest = nil
				pubMu.Unlock()
				if req == nil {
					continue
				}
				var resp IncumbentResponse
				if err := w.post(slCtx, "/dist/v1/incumbent", req, &resp); err == nil {
					w.lowerBest(resp.Incumbent)
				}
			}
		}
	}()
	go func() { // heartbeat: keeps the lease alive, polls the incumbent
		defer goroutines.Done()
		tick := time.NewTicker(w.heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var resp HeartbeatResponse
				err := w.post(slCtx, "/dist/v1/heartbeat", HeartbeatRequest{WorkerID: w.id, SolveID: w.solveID}, &resp)
				if err != nil {
					continue
				}
				if resp.Drain {
					w.draining.Store(true) // finish this slice, then wind down
				}
				if resp.Abandon {
					cancel()
					return
				}
				w.lowerBest(resp.Incumbent)
			}
		}
	}()

	p := w.params
	p.Prefix = sl.Prefix
	p.UpperBound = core.UpperBoundFixed
	p.FixedUpperBound = taskgraph.Time(w.best.Load())
	p.Link = &core.IncumbentLink{
		Best: func() taskgraph.Time { return taskgraph.Time(w.best.Load()) },
		Publish: func(cost taskgraph.Time, pls []sched.Placement) {
			w.lowerBest(int64(cost))
			seq := append([]sched.Placement(nil), pls...)
			pubMu.Lock()
			lastCost, lastSeq = cost, seq
			latest = &IncumbentRequest{WorkerID: w.id, SolveID: w.solveID, Cost: int64(cost), Placements: seq}
			pubMu.Unlock()
			select {
			case notify <- struct{}{}:
			default:
			}
		},
	}

	res, err := core.SolveContext(slCtx, w.g, w.plat, p)
	close(stop)
	goroutines.Wait()
	w.SlicesSolved.Add(1)

	report := ReportRequest{WorkerID: w.id, SolveID: w.solveID, SliceID: sl.ID}
	if err != nil {
		w.logf("dist: slice %d failed: %v", sl.ID, err)
		report.Reason = "error"
	} else {
		report.Exhausted = res.Reason == core.TermExhausted
		report.Reason = reasonString(res.Reason)
		report.Stats = wireStats(res.Stats)
		// Synchronous backstop: re-carry the best schedule this slice
		// found. Even if every async publish was lost, the optimum
		// reaches the coordinator with the slice's accounting.
		if lastSeq != nil {
			report.Cost = int64(lastCost)
			report.Placements = lastSeq
		}
	}
	var resp ReportResponse
	if err := w.post(ctx, "/dist/v1/report", report, &resp); err != nil {
		w.logf("dist: report for slice %d failed: %v", sl.ID, err)
		return false
	}
	if resp.Drain {
		w.draining.Store(true)
	}
	w.lowerBest(resp.Incumbent)
	return resp.Abandon
}

func reasonString(r core.TermReason) string {
	switch r {
	case core.TermExhausted:
		return "exhausted"
	case core.TermTimeLimit:
		return "timeout"
	case core.TermCanceled:
		return "canceled"
	case core.TermResourceLoss:
		return "loss"
	case core.TermGlobalBound:
		return "bound"
	case core.TermPanic:
		return "panic"
	}
	return fmt.Sprintf("reason-%d", int(r))
}

// sleep waits for d or ctx cancellation.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
