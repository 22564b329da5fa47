// Command bbserved is the scheduling daemon: it serves the repository's
// solvers — exact B&B, the anytime portfolio, list scheduling, workload
// analysis, and fault recovery — as a JSON HTTP API with result caching,
// admission control, and graceful drain.
//
// Usage:
//
//	bbserved [flags]
//
//	-addr string      listen address (default "127.0.0.1:8080"; :0 picks a port)
//	-workers int      concurrent solves (default GOMAXPROCS)
//	-queue int        admission queue depth (default 64)
//	-cache int        result-cache entries (default 4096; -1 disables)
//	-budget dur       default per-request solve budget (default 5s)
//	-max-budget dur   clamp for client-requested budgets (default 60s)
//	-drain dur        shutdown grace period (default 30s)
//	-distributed      act as a B&B fabric coordinator (see below)
//	-frontier int     frontier slices per distributed solve (default 64)
//	-lease-ttl dur    worker lease/heartbeat deadline (default 3s)
//	-journal string   durable checkpoint journal for distributed solves
//	-peers urls       comma-separated base URLs of the other replicas (cache grid)
//	-advertise url    this replica's base URL on the ring (default http://<listen addr>)
//	-tenants spec     admission classes: name[:weight[:queuecap]],... (weighted fair queueing)
//	-v                per-request logging to stderr
//
// Endpoints: POST /v1/{solve,anytime,list,analyze,recover,batch}, GET
// /healthz, GET /metrics. With -distributed the worker-facing fabric API
// is mounted under POST /dist/v1/ — point bbworker processes at this
// address — and solve requests carrying "distributed": true are sharded
// across the fleet instead of solved in-process.
//
// With -peers the daemon joins a replica cache grid: the canonical
// cache-key space is consistent-hashed across the fleet, each key's ring
// owner serves read-through gets with a single-flight fill claim (an
// isomorphism class is solved once fleet-wide), and replicas that solve
// on an owner's behalf fill the result back. The peer API is mounted
// under POST /grid/v1/. Every replica must be started with the same
// member set (its own -advertise URL plus the -peers list). With
// -tenants, requests carrying an X-Tenant header are admitted through
// per-tenant queues under weighted fair queueing instead of one global
// queue; each tenant's 429 Retry-After tracks its live backlog and
// service rate.
//
// With -journal every distributed solve checkpoints its frontier,
// incumbents, and slice completions to an fsynced JSONL file. If the
// journal already holds an unfinished solve at startup — the previous
// coordinator was killed mid-search — bbserved resumes it in the
// background: unfinished slices are re-leased to whatever workers join,
// and the completed result (identical cost and optimality proof) is
// logged. SIGINT/SIGTERM drains: the listener closes, in-flight solves
// finish (or hit their budgets), queued work is released with 503, an
// in-progress resume is checkpointed and canceled, and the process exits
// 0 after reporting leaked goroutines (a healthy shutdown reports zero).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", 0, "concurrent solves (default GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "admission queue depth")
		cache       = flag.Int("cache", 0, "result-cache entries (-1 disables)")
		budget      = flag.Duration("budget", 0, "default per-request solve budget")
		maxBudget   = flag.Duration("max-budget", 0, "clamp for client-requested budgets")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown grace period")
		distributed = flag.Bool("distributed", false, "act as a distributed B&B coordinator")
		frontier    = flag.Int("frontier", 0, "frontier slices per distributed solve (default 64)")
		leaseTTL    = flag.Duration("lease-ttl", 0, "worker lease/heartbeat deadline (default 3s)")
		journalPath = flag.String("journal", "", "durable checkpoint journal for distributed solves")
		peers       = flag.String("peers", "", "comma-separated base URLs of the other cache-grid replicas")
		advertise   = flag.String("advertise", "", "this replica's base URL on the ring (default http://<listen addr>)")
		tenants     = flag.String("tenants", "", "admission classes: name[:weight[:queuecap]],...")
		verbose     = flag.Bool("v", false, "per-request logging")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bbserved: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cache,
		DefaultBudget: *budget,
		MaxBudget:     *maxBudget,
	}
	if *verbose {
		cfg.Logf = log.New(os.Stderr, "bbserved: ", log.LstdFlags).Printf
	}
	ts, err := grid.ParseTenants(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbserved: %v\n", err)
		os.Exit(2)
	}
	cfg.Tenants = ts
	if *advertise != "" && *peers == "" {
		fmt.Fprintln(os.Stderr, "bbserved: -advertise requires -peers")
		os.Exit(2)
	}
	var fleet *dist.Fleet
	if *distributed {
		fleet = dist.NewFleet(dist.Config{
			FrontierTarget: *frontier,
			LeaseTTL:       *leaseTTL,
			JournalPath:    *journalPath,
			Logf:           cfg.Logf,
		})
		cfg.Fleet = fleet
	} else if *frontier != 0 || *leaseTTL != 0 || *journalPath != "" {
		fmt.Fprintln(os.Stderr, "bbserved: -frontier, -lease-ttl and -journal require -distributed")
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	// The goroutine baseline for the shutdown leak report: taken after
	// signal.Notify (whose watcher goroutine is process-lifetime) and
	// before any serving machinery starts.
	baseline := runtime.NumGoroutine()

	// The listener comes up before the server so a grid replica knows its
	// ring identity: with -peers and no -advertise, the bound address is
	// the advertised self URL.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbserved: %v\n", err)
		os.Exit(1)
	}
	var node *grid.Node
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		node = grid.NewNode(grid.NodeConfig{
			Self:  self,
			Peers: splitList(*peers),
			Logf:  cfg.Logf,
		})
		cfg.Grid = node
	}

	srv := server.New(cfg)
	fmt.Printf("bbserved: listening on %s\n", ln.Addr())
	if *distributed {
		fmt.Printf("bbserved: coordinating a worker fleet: bbworker -coordinator http://%s\n", ln.Addr())
	}
	if node != nil {
		fmt.Printf("bbserved: cache-grid replica %s, %d configured peers\n", node.Self(), len(splitList(*peers)))
	}

	hs := newHTTPServer(srv.Handler(), readHeaderTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// A non-empty journal means the previous coordinator died (or was
	// drained) mid-solve: adopt it in the background so rejoining workers
	// can finish the search. The resume runs under its own context — on
	// shutdown it is canceled, which checkpoints a final record and keeps
	// the journal resumable by the next coordinator.
	resumeDone := make(chan struct{})
	close(resumeDone)
	var resumeCancel context.CancelFunc
	if fleet != nil && *journalPath != "" {
		if st, err := os.Stat(*journalPath); err == nil && st.Size() > 0 {
			var rctx context.Context
			rctx, resumeCancel = context.WithCancel(context.Background())
			resumeDone = make(chan struct{})
			fmt.Printf("bbserved: resuming journaled solve from %s\n", *journalPath)
			go func() {
				defer close(resumeDone)
				res, err := fleet.Resume(rctx)
				switch {
				case err == nil:
					fmt.Printf("bbserved: resumed solve finished: cost=%d optimal=%v reason=%v\n",
						res.Cost, res.Optimal, res.Reason)
				case errors.Is(err, dist.ErrResumable):
					fmt.Printf("bbserved: resumed solve interrupted again, journal stays resumable: %v\n", err)
				default:
					fmt.Fprintf(os.Stderr, "bbserved: resume: %v\n", err)
				}
			}()
		}
	}

	select {
	case sig := <-sigs:
		fmt.Printf("bbserved: %s: draining\n", sig)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "bbserved: serve: %v\n", err)
		os.Exit(1)
	}

	// Drain order: stop the background resume first (it checkpoints and
	// returns), then stop admitting (queued waiters get 503, new requests
	// too), then let the HTTP layer wait for in-flight responses.
	if resumeCancel != nil {
		resumeCancel()
	}
	<-resumeDone
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	err = hs.Shutdown(ctx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbserved: shutdown: %v\n", err)
	}
	srv.Close()
	if node != nil {
		node.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "bbserved: serve: %v\n", err)
	}

	// Leak report: give runtime goroutines a moment to unwind, then
	// compare against the pre-serve baseline.
	leaked := runtime.NumGoroutine() - baseline
	for end := time.Now().Add(2 * time.Second); leaked > 0 && time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
		leaked = runtime.NumGoroutine() - baseline
	}
	if leaked < 0 {
		leaked = 0
	}
	fmt.Printf("bbserved: shutdown complete, %d leaked goroutines\n", leaked)
	if leaked > 0 {
		os.Exit(1)
	}
}

// Connection timeouts. A client gets readHeaderTimeout to deliver its
// request line and headers, and an idle keep-alive connection is closed
// after idleTimeout, so slow or silent clients cannot hold connections that
// admission control never sees. There is deliberately no WriteTimeout: a
// solve may legitimately run for up to -max-budget before its response is
// written.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer wraps the daemon's handler in an http.Server that drops a
// client which has not sent its full request header within headerTimeout.
func newHTTPServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// splitList splits a comma-separated flag into trimmed non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}
