// Command bbload is a closed-loop load generator for bbserved: c workers
// replay solver requests over a pool of generated workload instances and
// report throughput, error/rejection counts, cache behaviour, and latency
// percentiles.
//
// Usage:
//
//	bbload [flags]
//
//	-url string      base URL(s) of running bbserved replicas, comma-separated;
//	                 requests round-robin across them (default "http://127.0.0.1:8080")
//	-endpoint string solve|anytime|list|analyze|recover|mix (default "solve")
//	-tenants string  mixed-workload mode: comma-separated tenant names (weight
//	                 suffixes as in bbserved -tenants are accepted and ignored);
//	                 requests cycle the X-Tenant header across them
//	-n int           total requests (default 64)
//	-c int           concurrent clients (default 4)
//	-graphs int      distinct workload instances in the replay pool (default 16)
//	-procs int       processors per request (default 4)
//	-budget dur      per-request solve budget (default 2s)
//	-retries int     max retries per request after a 429 (default 3)
//	-seed int        workload seed (default 1997)
//	-distributed     mark solve requests distributed and spawn a worker fleet
//	-dist-workers    re-exec'd worker processes with -distributed (default 2)
//	-churn dur       with -distributed: drain and replace one worker at this interval
//	-hetero          mixed-scenario mode: solve requests cycle legacy
//	                 homogeneous, heterogeneous (speed factors + affinity
//	                 masks), and partitioned-mode scenarios
//	-quiet           suppress the per-run header
//
// Closed loop means each client issues its next request only after the
// previous one returned — the offered load adapts to the server instead
// of overrunning it, so the report measures sustainable throughput.
// Requests cycle through the instance pool; with -n larger than -graphs
// the tail of the run exercises the server's result cache.
//
// With -tenants the run becomes a fairness probe against a bbserved
// started with matching -tenants classes: request i carries the i-th
// tenant name (mod the list) in its X-Tenant header, and the report adds
// per-tenant ok counts, latency percentiles, throughput, and the
// max/min tenant-throughput ratio — under saturation that ratio should
// approach the configured weight ratio.
//
// A 429 rejection is retried up to -retries times, sleeping the server's
// Retry-After with ±50% jitter so released clients do not re-arrive in
// one wave; only a request that stays rejected counts against the run.
// The summary separates 429 rejections from 5xx server errors and
// transport failures, and reports how many 429s the retry loop absorbed.
//
// With -distributed (against a bbserved -distributed coordinator) the
// harness becomes a loopback multi-process fabric test: it re-execs
// itself -dist-workers times as fleet workers pointed at -url, replays
// solve requests carrying "distributed": true, and tears the workers
// down when the run ends. Adding -churn turns the fleet elastic: every
// interval the oldest worker is drained through POST /dist/v1/drain —
// it finishes its in-flight slice, hands leased work back, and exits —
// and a fresh worker is spawned in its place, so the run exercises the
// coordinator's join/drain autoscaling path under load.
//
// With -hetero the replay pool becomes the scenario matrix: instance i
// is a legacy homogeneous solve (i%3 == 0), a heterogeneous global solve
// with per-processor speed factors and restricted affinity masks
// (i%3 == 1), or a partitioned-mode solve on the same heterogeneous
// platform (i%3 == 2). All three hit distinct cache lines, so the run
// exercises platform canonicalization and both solve modes side by
// side. -hetero supports only -endpoint solve, without -distributed
// (heterogeneous platforms cannot be distributed).
//
// Exit status: 0 when every request succeeded (2xx), 1 otherwise.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/deadline"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/server"
)

func main() {
	// A re-exec'd copy of this binary acts as one fleet worker (see
	// -distributed): it joins the coordinator named by the env var and
	// solves leased slices until the parent signals it to stop.
	if coord := os.Getenv("BBLOAD_DIST_WORKER"); coord != "" {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		w := dist.NewWorker(dist.WorkerConfig{
			Coordinator: coord,
			Name:        fmt.Sprintf("bbload-%d", os.Getpid()),
			Poll:        20 * time.Millisecond,
		})
		_ = w.Run(ctx)
		return
	}

	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8080", "comma-separated base URLs of running bbserved replicas")
		endpoint    = flag.String("endpoint", "solve", "solve|anytime|list|analyze|recover|mix")
		tenantsFlag = flag.String("tenants", "", "mixed-workload mode: comma-separated tenant names to cycle X-Tenant across")
		n           = flag.Int("n", 64, "total requests")
		c           = flag.Int("c", 4, "concurrent clients")
		graphs      = flag.Int("graphs", 16, "distinct workload instances")
		procs       = flag.Int("procs", 4, "processors per request")
		budget      = flag.Duration("budget", 2*time.Second, "per-request solve budget")
		retries     = flag.Int("retries", 3, "max retries per request after a 429")
		seed        = flag.Int64("seed", 1997, "workload seed")
		distributed = flag.Bool("distributed", false, "mark solve requests distributed and spawn a worker fleet")
		distWorkers = flag.Int("dist-workers", 2, "worker processes to spawn with -distributed")
		churn       = flag.Duration("churn", 0, "with -distributed: drain and replace one worker at this interval")
		hetero      = flag.Bool("hetero", false, "mixed-scenario mode: cycle legacy, heterogeneous, and partitioned solves")
		quiet       = flag.Bool("quiet", false, "suppress the per-run header")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bbload: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *n < 1 || *c < 1 || *graphs < 1 || *retries < 0 {
		fmt.Fprintln(os.Stderr, "bbload: -n, -c and -graphs must be positive, -retries non-negative")
		os.Exit(2)
	}
	if *distributed && *endpoint != "solve" {
		fmt.Fprintln(os.Stderr, "bbload: -distributed supports only -endpoint solve")
		os.Exit(2)
	}
	if *churn > 0 && (!*distributed || *distWorkers < 1) {
		fmt.Fprintln(os.Stderr, "bbload: -churn requires -distributed with -dist-workers >= 1")
		os.Exit(2)
	}
	if *hetero && (*endpoint != "solve" || *distributed) {
		fmt.Fprintln(os.Stderr, "bbload: -hetero supports only -endpoint solve, without -distributed")
		os.Exit(2)
	}
	if *hetero && (*procs < 2 || *procs > 64) {
		fmt.Fprintln(os.Stderr, "bbload: -hetero needs 2 <= -procs <= 64 (affinity masks)")
		os.Exit(2)
	}

	urls := splitList(*baseURL)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "bbload: -url must name at least one server")
		os.Exit(2)
	}
	tenantSpec, err := grid.ParseTenants(*tenantsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbload: %v\n", err)
		os.Exit(2)
	}
	tenants := make([]string, len(tenantSpec))
	for i, t := range tenantSpec {
		tenants[i] = t.Name
	}

	reqs, err := buildRequests(*endpoint, *graphs, *procs, budget.Milliseconds(), *seed, *distributed, *hetero)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbload: %v\n", err)
		os.Exit(2)
	}
	if !*quiet {
		fmt.Printf("bbload: endpoint=%s n=%d c=%d graphs=%d procs=%d budget=%s url=%s\n",
			*endpoint, *n, *c, *graphs, *procs, *budget, *baseURL)
		if len(tenants) > 0 {
			fmt.Printf("bbload: tenants=%s\n", strings.Join(tenants, ","))
		}
	}

	var fleet *workerFleet
	if *distributed && *distWorkers > 0 {
		fleet, err = spawnWorkers(urls[0], *distWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbload: spawn workers: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("bbload: spawned %d loopback workers\n", *distWorkers)
		}
	}
	var churnCancel context.CancelFunc
	churnDone := make(chan struct{})
	close(churnDone)
	if fleet != nil && *churn > 0 {
		var cctx context.Context
		cctx, churnCancel = context.WithCancel(context.Background())
		churnDone = make(chan struct{})
		go func() {
			defer close(churnDone)
			fleet.churn(cctx, *churn, *quiet)
		}()
	}

	rep := run(urls, tenants, reqs, *n, *c, *retries)
	if churnCancel != nil {
		churnCancel()
	}
	<-churnDone
	if fleet != nil {
		fleet.stop()
	}
	rep.print(os.Stdout)
	if rep.failed() {
		os.Exit(1)
	}
}

// workerFleet manages the re-exec'd worker processes of a -distributed
// run. Workers are named "bbload-<pid>" (the re-exec'd child derives the
// same name from its own pid), which is what lets churn target one of
// them through the coordinator's drain endpoint.
type workerFleet struct {
	coordinator string
	mu          sync.Mutex
	procs       []*exec.Cmd
}

// spawnWorkers re-execs this binary n times in worker mode against the
// coordinator.
func spawnWorkers(coordinator string, n int) (*workerFleet, error) {
	f := &workerFleet{coordinator: coordinator}
	for i := 0; i < n; i++ {
		if err := f.spawn(); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// spawn starts one worker process and tracks it for teardown.
func (f *workerFleet) spawn() error {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BBLOAD_DIST_WORKER="+f.coordinator)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	f.mu.Lock()
	f.procs = append(f.procs, cmd)
	f.mu.Unlock()
	return nil
}

// stop terminates and reaps every tracked worker.
func (f *workerFleet) stop() {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	for _, c := range procs {
		_ = c.Process.Signal(syscall.SIGTERM) // already-dead child is fine
	}
	for _, c := range procs {
		_ = c.Wait() // exit status is irrelevant at teardown
	}
}

// churn drains and replaces one worker per interval until the context is
// canceled: the oldest worker is asked to drain through the coordinator
// (it finishes its in-flight slice, releases the rest of its lease, and
// exits on its own), then a fresh worker joins in its place. A worker
// that ignores the drain for 10s is killed — the coordinator's lease TTL
// recovers whatever it held.
func (f *workerFleet) churn(ctx context.Context, interval time.Duration, quiet bool) {
	client := &http.Client{Timeout: 5 * time.Second}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for drains := 1; ; drains++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		f.mu.Lock()
		if len(f.procs) == 0 {
			f.mu.Unlock()
			return
		}
		victim := f.procs[0]
		f.procs = f.procs[1:]
		f.mu.Unlock()

		name := fmt.Sprintf("bbload-%d", victim.Process.Pid)
		body, _ := json.Marshal(dist.DrainRequest{Name: name})
		resp, err := client.Post(f.coordinator+"/dist/v1/drain", "application/json", bytes.NewReader(body))
		if err != nil {
			// Coordinator unreachable: fall back to a plain SIGTERM so the
			// churn cadence survives.
			_ = victim.Process.Signal(syscall.SIGTERM)
		} else {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				// Worker never joined (no solve has run yet): it holds no
				// work, so a signal is an equivalent drain.
				_ = victim.Process.Signal(syscall.SIGTERM)
			}
		}

		exited := make(chan struct{})
		go func() {
			_ = victim.Wait() // exit status is irrelevant; drained exit is 0
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			_ = victim.Process.Kill()
			<-exited
		case <-ctx.Done():
			_ = victim.Process.Signal(syscall.SIGTERM)
			<-exited
			return
		}
		if err := f.spawn(); err != nil {
			fmt.Fprintf(os.Stderr, "bbload: churn respawn: %v\n", err)
			return
		}
		if !quiet {
			fmt.Printf("bbload: churn %d: drained %s, spawned a replacement\n", drains, name)
		}
	}
}

// request is one prepared POST: path plus marshaled body.
type request struct {
	path string
	body []byte
}

// buildRequests prepares the replay pool: one request per generated
// instance (cycling endpoints when endpoint is "mix", and scenario cells
// when hetero is set).
func buildRequests(endpoint string, graphs, procs int, budgetMS int64, seed int64, distributed, hetero bool) ([]request, error) {
	endpoints := []string{endpoint}
	if endpoint == "mix" {
		endpoints = []string{"solve", "anytime", "list", "analyze", "recover"}
	}
	p := gen.Defaults()
	plat := platform.New(procs)
	reqs := make([]request, 0, graphs)
	for i := 0; i < graphs; i++ {
		g := gen.New(p, seed+int64(i)).Graph()
		if err := deadline.Assign(g, p.Laxity, deadline.EqualSlack); err != nil {
			return nil, err
		}
		ep := endpoints[i%len(endpoints)]
		gr := server.GraphRequest{Graph: g, Procs: procs}
		mode := ""
		if hetero && i%3 != 0 {
			// Scenario cells 1 and 2 run on a fast/slow platform where a
			// quarter of the tasks are pinned away from processor 0; cell 2
			// additionally switches to partitioned mode.
			universe := uint64(1)<<procs - 1
			gr.SpeedFactors = make([]float64, procs)
			for q := range gr.SpeedFactors {
				gr.SpeedFactors[q] = float64(1 + q&1)
			}
			gr.Affinities = make([]uint64, g.NumTasks())
			for id := range gr.Affinities {
				gr.Affinities[id] = universe
				if id%4 == 3 {
					gr.Affinities[id] = universe &^ 1
				}
			}
			if i%3 == 2 {
				mode = "partitioned"
			}
		}
		var (
			payload any
			path    = "/v1/" + ep
		)
		switch ep {
		case "solve":
			payload = server.SolveRequest{GraphRequest: gr, BudgetMS: budgetMS, Distributed: distributed, Mode: mode}
		case "anytime":
			payload = server.AnytimeRequest{GraphRequest: gr, BudgetMS: budgetMS, Seed: seed}
		case "list":
			payload = server.ListRequest{GraphRequest: gr}
		case "analyze":
			payload = server.AnalyzeRequest{GraphRequest: gr}
		case "recover":
			res, err := listsched.Best(g, plat)
			if err != nil {
				return nil, fmt.Errorf("instance %d: %v", i, err)
			}
			at := res.Schedule.Makespan() / 2
			proc := rand.New(rand.NewSource(seed + int64(i))).Intn(procs)
			payload = server.RecoverRequest{
				GraphRequest: gr,
				Schedule:     res.Schedule.Placements(),
				Faults: []server.FaultSpec{{
					Kind: "proc-failure", Proc: proc, At: at,
				}},
				BudgetMS: budgetMS,
			}
		default:
			return nil, fmt.Errorf("unknown endpoint %q", ep)
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{path: path, body: body})
	}
	return reqs, nil
}

// report aggregates a run's outcomes.
type report struct {
	wall      time.Duration
	ok        atomic.Int64
	rejected  atomic.Int64 // 429 after the retry budget ran out
	retried   atomic.Int64 // 429s absorbed by the retry loop
	server5xx atomic.Int64 // 5xx responses
	errored   atomic.Int64 // transport errors and remaining non-2xx
	cacheHits atomic.Int64 // X-Cache hit or peer
	peerHits  atomic.Int64 // the peer-served subset of cacheHits

	mu        sync.Mutex
	latencies []time.Duration
	tenants   map[string]*tenantStat
}

// tenantStat is one tenant's slice of the run (guarded by report.mu).
type tenantStat struct {
	ok        int64
	latencies []time.Duration
}

func (r *report) observe(tenant string, d time.Duration) {
	r.mu.Lock()
	r.latencies = append(r.latencies, d)
	if tenant != "" {
		r.tenantLocked(tenant).latencies = append(r.tenantLocked(tenant).latencies, d)
	}
	r.mu.Unlock()
}

func (r *report) tenantOK(tenant string) {
	if tenant == "" {
		return
	}
	r.mu.Lock()
	r.tenantLocked(tenant).ok++
	r.mu.Unlock()
}

func (r *report) tenantLocked(name string) *tenantStat {
	if r.tenants == nil {
		r.tenants = map[string]*tenantStat{}
	}
	ts := r.tenants[name]
	if ts == nil {
		ts = &tenantStat{}
		r.tenants[name] = ts
	}
	return ts
}

func (r *report) failed() bool {
	return r.errored.Load() > 0 || r.server5xx.Load() > 0 || r.rejected.Load() > 0
}

// quantile returns the q-th latency; the slice must be sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (r *report) print(w io.Writer) {
	total := r.ok.Load() + r.rejected.Load() + r.server5xx.Load() + r.errored.Load()
	fmt.Fprintf(w, "bbload: %d requests: %d ok, %d rejected (429), %d server errors (5xx), %d other errors, %d cache hits\n",
		total, r.ok.Load(), r.rejected.Load(), r.server5xx.Load(), r.errored.Load(), r.cacheHits.Load())
	if n := r.peerHits.Load(); n > 0 {
		fmt.Fprintf(w, "bbload: %d of the cache hits were peer-served (grid fill)\n", n)
	}
	if n := r.retried.Load(); n > 0 {
		fmt.Fprintf(w, "bbload: %d 429s absorbed by retries (Retry-After honored, jittered)\n", n)
	}
	secs := r.wall.Seconds()
	if secs > 0 {
		fmt.Fprintf(w, "bbload: wall %s, %.1f req/s\n", r.wall.Round(time.Millisecond), float64(total)/secs)
	}
	r.mu.Lock()
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	if n := len(r.latencies); n > 0 {
		fmt.Fprintf(w, "bbload: latency p50=%s p90=%s p99=%s max=%s\n",
			quantile(r.latencies, 0.50).Round(time.Microsecond),
			quantile(r.latencies, 0.90).Round(time.Microsecond),
			quantile(r.latencies, 0.99).Round(time.Microsecond),
			r.latencies[n-1].Round(time.Microsecond))
	}
	if len(r.tenants) > 0 {
		names := make([]string, 0, len(r.tenants))
		for name := range r.tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		minTP, maxTP := math.Inf(1), 0.0
		for _, name := range names {
			ts := r.tenants[name]
			sort.Slice(ts.latencies, func(i, j int) bool { return ts.latencies[i] < ts.latencies[j] })
			var tp float64
			if secs > 0 {
				tp = float64(ts.ok) / secs
			}
			minTP, maxTP = math.Min(minTP, tp), math.Max(maxTP, tp)
			fmt.Fprintf(w, "bbload: tenant %s: %d ok, %.1f req/s, latency p50=%s p90=%s p99=%s\n",
				name, ts.ok, tp,
				quantile(ts.latencies, 0.50).Round(time.Microsecond),
				quantile(ts.latencies, 0.90).Round(time.Microsecond),
				quantile(ts.latencies, 0.99).Round(time.Microsecond))
		}
		if len(names) > 1 && minTP > 0 {
			fmt.Fprintf(w, "bbload: tenant throughput fairness max/min = %.2f\n", maxTP/minTP)
		}
	}
	r.mu.Unlock()
}

// backoff turns a 429's Retry-After header into a sleep with ±50% jitter
// so the c clients released by one overload burst do not re-arrive as a
// single wave. A missing or unparsable header falls back to 50ms doubling
// per attempt.
func backoff(retryAfter string, attempt int, rng *rand.Rand) time.Duration {
	base := 50 * time.Millisecond << (attempt - 1)
	if s, err := strconv.Atoi(retryAfter); err == nil && s >= 0 {
		base = time.Duration(s) * time.Second
		if base == 0 {
			base = 50 * time.Millisecond
		}
	}
	return time.Duration(float64(base) * (0.5 + rng.Float64()))
}

// run drives the closed loop: c clients drain a shared ticket counter,
// each retrying 429s up to the retry budget before counting a rejection.
// Request i goes to urls[i mod len(urls)] and, in mixed-workload mode,
// carries tenants[i mod len(tenants)] in its X-Tenant header — both
// assignments are per-ticket, so every server and tenant sees the same
// request mix regardless of client scheduling.
func run(urls, tenants []string, reqs []request, n, c, retries int) *report {
	rep := &report{}
	client := &http.Client{}
	post := func(url, tenant string, body []byte) (*http.Response, error) {
		hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			hr.Header.Set("X-Tenant", tenant)
		}
		return client.Do(hr)
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(w)))
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				req := reqs[i%len(reqs)]
				url := urls[i%len(urls)]
				tenant := ""
				if len(tenants) > 0 {
					tenant = tenants[i%len(tenants)]
				}
				t0 := time.Now()
				var resp *http.Response
				var err error
				for attempt := 0; ; attempt++ {
					resp, err = post(url+req.path, tenant, req.body)
					if err != nil || resp.StatusCode != http.StatusTooManyRequests || attempt >= retries {
						break
					}
					d := backoff(resp.Header.Get("Retry-After"), attempt+1, rng)
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					rep.retried.Add(1)
					time.Sleep(d)
				}
				if err != nil {
					rep.errored.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				rep.observe(tenant, time.Since(t0))
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					rep.rejected.Add(1)
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					rep.ok.Add(1)
					rep.tenantOK(tenant)
					switch resp.Header.Get("X-Cache") {
					case "hit":
						rep.cacheHits.Add(1)
					case "peer":
						rep.cacheHits.Add(1)
						rep.peerHits.Add(1)
					}
				case resp.StatusCode >= 500:
					rep.server5xx.Add(1)
				default:
					rep.errored.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rep.wall = time.Since(start)
	return rep
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
