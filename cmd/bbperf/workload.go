package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// serveMode selects how a workload's ops reach the solver.
type serveMode int

const (
	inProcess serveMode = iota // one exact solve per op, called directly
	serveCold                  // one /v1/solve miss per op, fresh server each pass
	serveWarm                  // one /v1/solve hit per op on a warmed server
)

// draw takes n stratified instances of one catalog kind.
type draw struct {
	family, kind string
	n            int
	maxEffort    int64 // 0 = the catalog cap
	maxUS        int64 // 0 = no time cap
}

// workload is one named set of ops; the package comment and
// BENCHMARK.json say why each exists.
type workload struct {
	name  string
	mode  serveMode
	draws []draw
}

var workloads = []workload{
	{name: "paper-exact", draws: []draw{{family: "paper", kind: "lifo", n: 128}, {family: "paper", kind: "llb", n: 128}, {family: "paper", kind: "ida-df", n: 128}}},
	{name: "wide-dedup", draws: []draw{{family: "wide", kind: "lifo-dedup", n: 64, maxEffort: 20_000}}},
	{name: "hetero-mix", draws: []draw{{family: "hetero", kind: "global", n: 512}, {family: "hetero", kind: "partitioned", n: 512}}},
	{name: "serve-cold", mode: serveCold, draws: []draw{{family: "m2", kind: "lifo", n: 1000}}},
	{name: "serve-warm", mode: serveWarm, draws: []draw{
		{family: "m2", kind: "lifo", n: 20, maxUS: 2000},
		{family: "hetero", kind: "global", n: 20, maxUS: 2000},
		{family: "hetero", kind: "partitioned", n: 20, maxUS: 2000},
	}},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one planned solve: a catalog instance, the kind that solves it
// and the answer it must return.
type op struct {
	fam    *family
	kind   kind
	inst   int
	want   taskgraph.Time
	digest uint32
	us     int64 // catalog solve time
}

// plan draws the workload's ops for a seed. In-process workloads run
// them in a seeded shuffled order; the serving workloads keep draw order.
func (w *workload) plan(c *catalog, seed int64) ([]op, error) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.name)) // hash writes never fail
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	var ops []op
	for _, d := range w.draws {
		f, err := familyByName(d.family)
		if err != nil {
			return nil, err
		}
		k, err := f.kind(d.kind)
		if err != nil {
			return nil, err
		}
		cf, err := c.family(f.name)
		if err != nil {
			return nil, err
		}
		ck := cf.kind(k.name)
		idx, err := ck.stratified(d.n, d.maxEffort, d.maxUS, rng)
		if err != nil {
			return nil, err
		}
		for _, i := range idx {
			ops = append(ops, op{fam: f, kind: k, inst: i, want: taskgraph.Time(ck.Cost[i]), digest: cf.Digest[i], us: ck.US[i]})
		}
	}
	if w.mode == inProcess {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return ops, nil
}

// oracle regenerates every planned instance and checks it against the
// catalog digest, so answers are never checked against a different graph.
func oracle(ops []op) error {
	for _, o := range ops {
		g, _, err := o.fam.instance(o.inst)
		if err != nil {
			return err
		}
		d, err := digest(g)
		if err != nil {
			return err
		}
		if d != o.digest {
			return fmt.Errorf("%s instance %d no longer matches the catalog (generator changed? rerun with -write-expected)", o.fam.name, o.inst)
		}
	}
	return nil
}

// instance is a planned op materialized for timing.
type instance struct {
	op
	g *taskgraph.Graph
	p platform.Platform
}

func materialize(ops []op) ([]instance, error) {
	out := make([]instance, len(ops))
	for i, o := range ops {
		g, p, err := o.fam.instance(o.inst)
		if err != nil {
			return nil, err
		}
		if _, err := g.TopoOrder(); err != nil {
			return nil, err
		}
		out[i] = instance{op: o, g: g, p: p}
	}
	return out, nil
}

// recorder collects what one timed attempt observed.
type recorder struct {
	latMS    []float64
	ops      int
	failed   int
	problems []string
	tr       tracer
	coreGen  int64 // generated vertices of traced global solves
	coreNS   int64 // their solve time
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runner holds one workload between set-up and validation.
type runner interface {
	// pass runs every op once and returns the time the ops took, not
	// counting per-pass server start-up.
	pass(rec *recorder, traced bool) time.Duration
	// validate checks every recorded answer and returns how many op
	// executions each failing answer covered.
	validate() (failed int, problems []string)
	// counts adds the per-layer counts the recorded answers carry.
	counts(m map[string]float64)
	// instances returns the materialized ops, for the layer replays.
	instances() []instance
	close()
}

func setup(w *workload, ops []op, seed int64) (runner, error) {
	insts, err := materialize(ops)
	if err != nil {
		return nil, err
	}
	switch w.mode {
	case serveCold:
		return newColdRunner(insts)
	case serveWarm:
		return newWarmRunner(insts, seed)
	}
	return &kernelRunner{insts: insts, first: make([]outcome, len(insts)), have: make([]bool, len(insts)), runs: make([]int, len(insts))}, nil
}

// kernelRunner calls the solver directly, one op at a time.
type kernelRunner struct {
	insts []instance
	first []outcome // the first answer of each op, validated after timing
	have  []bool    // first[i] is recorded
	runs  []int
}

func (r *kernelRunner) instances() []instance { return r.insts }
func (r *kernelRunner) close()                {}

func (r *kernelRunner) pass(rec *recorder, traced bool) time.Duration {
	start := time.Now()
	for i := range r.insts {
		in := &r.insts[i]
		id := rec.ops
		rec.ops++
		root, call := -1, -1
		if traced {
			root = rec.tr.begin("op", -1, id)
			call = rec.tr.begin(in.kind.layer(), root, id)
		}
		t0 := time.Now()
		out, err := in.kind.solve(context.Background(), in.g, in.p)
		d := time.Since(t0)
		rec.latMS = append(rec.latMS, float64(d.Nanoseconds())/1e6)
		if traced {
			rec.tr.end(call)
			if !in.kind.partitioned {
				rec.coreGen += out.stats.Generated
				rec.coreNS += d.Nanoseconds()
			}
		}
		r.record(rec, i, out, err)
		if traced {
			rec.tr.end(root)
		}
	}
	return time.Since(start)
}

// record keeps the first answer of op i and fails any later pass whose
// answer differs from it; the first answers are validated after timing.
func (r *kernelRunner) record(rec *recorder, i int, out outcome, err error) {
	in := &r.insts[i]
	r.runs[i]++
	switch {
	case err != nil:
		rec.fail("%s %s/%d: %v", in.kind.name, in.fam.name, in.inst, err)
	case !r.have[i]:
		r.first[i], r.have[i] = out, true
	default:
		f := r.first[i]
		if out.cost != f.cost || out.optimal != f.optimal || in.kind.effort(out) != in.kind.effort(f) {
			rec.fail("%s %s/%d: answer changed between passes", in.kind.name, in.fam.name, in.inst)
		}
	}
}

func (r *kernelRunner) validate() (int, []string) {
	failed, problems := 0, []string(nil)
	for i, in := range r.insts {
		if !r.have[i] {
			continue // never answered, already counted as failed
		}
		if err := checkOutcome(in, r.first[i]); err != nil {
			failed += r.runs[i]
			problems = append(problems, fmt.Sprintf("%s %s/%d: %v", in.kind.name, in.fam.name, in.inst, err))
		}
	}
	return failed, problems
}

// checkOutcome is the answer check of one in-process op.
func checkOutcome(in instance, o outcome) error {
	if in.kind.exact() && !o.optimal {
		return fmt.Errorf("optimal=false")
	}
	if o.cost != in.want {
		return fmt.Errorf("Lmax %d, expected %d", o.cost, in.want)
	}
	if err := checkSchedule(o.sched, o.cost); err != nil {
		return err
	}
	if in.kind.partitioned {
		re, err := edf.SchedulePartitioned(in.g, in.p, o.assign)
		if err != nil {
			return err
		}
		if re.Lmax != o.cost {
			return fmt.Errorf("assignment re-simulates to Lmax %d, reported %d", re.Lmax, o.cost)
		}
	}
	return nil
}

// checkSchedule verifies a complete, structurally valid schedule whose
// Lmax is the reported one.
func checkSchedule(s *sched.Schedule, lmax taskgraph.Time) error {
	if s == nil || !s.Complete() {
		return fmt.Errorf("no complete schedule")
	}
	if err := s.Check(); err != nil {
		return err
	}
	if got := s.Lmax(); got != lmax {
		return fmt.Errorf("schedule Lmax %d, reported %d", got, lmax)
	}
	return nil
}

func (r *kernelRunner) counts(m map[string]float64) {
	var n, gen, exp, pruned, dedup, hits, tableHW, maxAS float64
	var hn, visited, evaluated, hpruned float64
	for i, in := range r.insts {
		o := r.first[i]
		if in.kind.partitioned {
			hn++
			visited += float64(o.het.Visited)
			evaluated += float64(o.het.Evaluated)
			hpruned += float64(o.het.Pruned)
			continue
		}
		n++
		gen += float64(o.stats.Generated)
		exp += float64(o.stats.Expanded)
		pruned += float64(o.stats.PrunedChildren + o.stats.PrunedActive + o.stats.DedupPruned)
		dedup += float64(o.stats.DedupPruned)
		hits += float64(o.stats.TableHits)
		tableHW = max(tableHW, float64(o.stats.TableBytesInUse))
		maxAS = max(maxAS, float64(o.stats.MaxActiveSet))
	}
	m["core.generated"] = ratio(gen, n)
	m["core.expanded"] = ratio(exp, n)
	m["core.pruned_ratio"] = ratio(pruned, gen)
	m["core.max_active_set"] = maxAS
	m["core.dedup_pruned"] = ratio(dedup, n)
	m["transpose.hit_rate"] = ratio(hits, gen)
	m["transpose.bytes_high_water"] = tableHW
	m["hetero.visited"] = ratio(visited, hn)
	m["hetero.evaluated"] = ratio(evaluated, hn)
	m["hetero.prune_ratio"] = ratio(hpruned, visited)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- serving workloads -------------------------------------------------

// serveReq is one prepared /v1/solve request with what its answer is
// checked against: the graph and platform in the requester's numbering.
type serveReq struct {
	body []byte
	g    *taskgraph.Graph
	p    platform.Platform
	want taskgraph.Time
}

// solveBody encodes a /v1/solve request for a graph on a platform.
func solveBody(g *taskgraph.Graph, p platform.Platform, k kind) ([]byte, error) {
	req := server.SolveRequest{
		GraphRequest: server.GraphRequest{Graph: g, Procs: p.M, SpeedFactors: p.Speed, Affinities: p.Affinity},
		BudgetMS:     60_000,
		Dedup:        k.params.Dedup,
	}
	if k.partitioned {
		req.Mode = "partitioned"
	}
	return json.Marshal(req)
}

// serverConfig is the served workloads' server: two solve workers, the
// default cache, and a budget no catalog instance comes near.
func serverConfig() server.Config {
	return server.Config{Workers: 2, DefaultBudget: time.Minute, MaxBudget: time.Minute}
}

// client is the closed-loop load generator: one client that sends its
// next request when the previous answer has been read. A second client
// made back-to-back runs of one seed scatter two to three times wider
// (IQR/median 13-16% against 4-10% on two cores), so the serving
// workloads load the server from one connection.
type client struct {
	http  *http.Client
	reqs  []serveReq
	first [][]byte // first body per request, validated after timing
	runs  []int
}

func newClient(reqs []serveReq) *client {
	return &client{
		http:  &http.Client{},
		reqs:  reqs,
		first: make([][]byte, len(reqs)),
		runs:  make([]int, len(reqs)),
	}
}

// drive sends every request once against url.
func (c *client) drive(url string, rec *recorder, traced bool) time.Duration {
	start := time.Now()
	for i := range c.reqs {
		c.send(url, i, rec, traced)
	}
	return time.Since(start)
}

func (c *client) send(url string, i int, rec *recorder, traced bool) {
	id := rec.ops
	rec.ops++
	root, call := -1, -1
	if traced {
		root = rec.tr.begin("op", -1, id)
		call = rec.tr.begin("http.request", root, id)
	}
	t0 := time.Now()
	body, status, err := post(c.http, url+"/v1/solve", c.reqs[i].body)
	rec.latMS = append(rec.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
	if traced {
		rec.tr.end(call)
	}
	c.runs[i]++
	switch {
	case err != nil:
		rec.fail("request %d: %v", i, err)
	case status != http.StatusOK:
		rec.fail("request %d: status %d: %s", i, status, bytes.TrimSpace(body))
	case c.first[i] == nil:
		c.first[i] = body
	case !bytes.Equal(c.first[i], body):
		rec.fail("request %d: answer changed between passes", i)
	}
	if traced {
		rec.tr.end(root)
	}
}

func post(client *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return b, resp.StatusCode, err
}

func (c *client) validate() (int, []string) {
	failed, problems := 0, []string(nil)
	for i, r := range c.reqs {
		if c.first[i] == nil {
			continue // never answered, already counted as failed
		}
		if err := checkSolveBody(c.first[i], r.g, r.p, r.want); err != nil {
			failed += c.runs[i]
			problems = append(problems, fmt.Sprintf("request %d: %v", i, err))
		}
	}
	return failed, problems
}

// checkSolveBody is the answer check of one /v1/solve response: proven
// optimal, the expected Lmax, and a schedule that is valid in the
// requester's task and processor numbering and has the reported Lmax.
func checkSolveBody(body []byte, g *taskgraph.Graph, p platform.Platform, want taskgraph.Time) error {
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if !resp.Optimal {
		return fmt.Errorf("optimal=false")
	}
	if resp.Lmax != want {
		return fmt.Errorf("Lmax %d, expected %d", resp.Lmax, want)
	}
	s := sched.NewSchedule(g, p)
	for _, pl := range resp.Schedule {
		if pl.Task < 0 || int(pl.Task) >= g.NumTasks() || pl.Proc < 0 || int(pl.Proc) >= p.M || s.Placed(pl.Task) {
			return fmt.Errorf("bad placement %+v", pl)
		}
		s.Set(pl.Task, pl.Proc, pl.Start)
		if s.Finish(pl.Task) != pl.Finish {
			return fmt.Errorf("task %d finish %d, start+exec gives %d", pl.Task, pl.Finish, s.Finish(pl.Task))
		}
	}
	return checkSchedule(s, resp.Lmax)
}

// counts reads the per-layer counts the first answers carry.
func (c *client) responseCounts(m map[string]float64) {
	var n, gen, exp, maxAS float64
	for _, b := range c.first {
		var resp server.SolveResponse
		if json.Unmarshal(b, &resp) != nil {
			continue
		}
		n++
		gen += float64(resp.Stats.Generated)
		exp += float64(resp.Stats.Expanded)
		maxAS = max(maxAS, float64(resp.Stats.MaxActiveSet))
	}
	m["core.generated"] = ratio(gen, n)
	m["core.expanded"] = ratio(exp, n)
	m["core.max_active_set"] = maxAS
}

// served is a running in-process server on a loopback listener.
type served struct {
	srv *server.Server
	ts  *httptest.Server
}

func startServer() *served {
	srv := server.New(serverConfig())
	return &served{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (s *served) close() {
	s.ts.Close()
	s.srv.Close()
}

// serverTally accumulates the server's own counters over the timed passes.
type serverTally struct {
	passes, solves, hits, misses, rejected int64
	util                                   float64
}

func (t *serverTally) add(before, after server.MetricsSnapshot) {
	b, a := before.Endpoints["solve"], after.Endpoints["solve"]
	t.passes++
	t.solves += after.Solves - before.Solves
	t.hits += a.CacheHits - b.CacheHits
	t.misses += a.CacheMisses - b.CacheMisses
	t.rejected += a.Rejected - b.Rejected
	t.util += after.WorkerUtilization
}

func (t *serverTally) counts(m map[string]float64) {
	m["server.cache_hit_ratio"] = ratio(float64(t.hits), float64(t.hits+t.misses))
	m["server.solves"] = ratio(float64(t.solves), float64(t.passes))
	m["grid.utilization"] = ratio(t.util, float64(t.passes))
	m["grid.rejected"] = float64(t.rejected)
}

// coldRunner sends each distinct graph once per pass to a fresh server,
// so every request misses the cache.
type coldRunner struct {
	insts []instance
	c     *client
	tally serverTally
}

func newColdRunner(insts []instance) (*coldRunner, error) {
	reqs := make([]serveReq, len(insts))
	for i, in := range insts {
		body, err := solveBody(in.g, in.p, in.kind)
		if err != nil {
			return nil, err
		}
		reqs[i] = serveReq{body: body, g: in.g, p: in.p, want: in.want}
	}
	return &coldRunner{insts: insts, c: newClient(reqs)}, nil
}

func (r *coldRunner) instances() []instance { return r.insts }
func (r *coldRunner) close()                { r.c.http.CloseIdleConnections() }

func (r *coldRunner) pass(rec *recorder, traced bool) time.Duration {
	s := startServer()
	defer s.close()
	before := s.srv.Metrics()
	d := r.c.drive(s.ts.URL, rec, traced)
	r.tally.add(before, s.srv.Metrics())
	r.c.http.CloseIdleConnections()
	return d
}

func (r *coldRunner) validate() (int, []string) { return r.c.validate() }

func (r *coldRunner) counts(m map[string]float64) {
	r.c.responseCounts(m)
	r.tally.counts(m)
}

// warmRunner solves a pool of graphs during set-up and then sends
// relabeled copies of them: every timed request is a cache hit that must
// be re-canonicalized and remapped to the requester's numbering.
type warmRunner struct {
	insts []instance
	s     *served
	c     *client
	tally serverTally
}

// warmRequests is the number of distinct relabeled requests in one pass.
const warmRequests = 2048

func newWarmRunner(insts []instance, seed int64) (*warmRunner, error) {
	s := startServer()
	c := newClient(nil)
	for _, in := range insts {
		body, err := solveBody(in.g, in.p, in.kind)
		if err != nil {
			s.close()
			return nil, err
		}
		if _, status, err := post(c.http, s.ts.URL+"/v1/solve", body); err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warming %s/%d: status %d: %v", in.fam.name, in.inst, status, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]serveReq, warmRequests)
	for j := range reqs {
		in := insts[j%len(insts)]
		g, p, err := relabel(in.g, in.p, rng)
		if err != nil {
			s.close()
			return nil, err
		}
		body, err := solveBody(g, p, in.kind)
		if err != nil {
			s.close()
			return nil, err
		}
		reqs[j] = serveReq{body: body, g: g, p: p, want: in.want}
	}
	c.reqs, c.first, c.runs = reqs, make([][]byte, len(reqs)), make([]int, len(reqs))
	return &warmRunner{insts: insts, s: s, c: c}, nil
}

// relabel permutes a graph's task IDs and, on heterogeneous platforms,
// its processors (speed factors and affinity bits move together), which
// leaves the instance — and its cache key — unchanged.
func relabel(g *taskgraph.Graph, p platform.Platform, rng *rand.Rand) (*taskgraph.Graph, platform.Platform, error) {
	n := g.NumTasks()
	perm := make([]taskgraph.TaskID, n)
	for old, nw := range rng.Perm(n) {
		perm[old] = taskgraph.TaskID(nw)
	}
	rg, err := taskgraph.Relabel(g, perm)
	if err != nil {
		return nil, platform.Platform{}, err
	}
	if !p.Heterogeneous() {
		return rg, p, nil
	}
	procs := rng.Perm(p.M)
	rp := platform.New(p.M)
	rp.Speed = make([]float64, p.M)
	for q, nq := range procs {
		rp.Speed[nq] = p.Speed[q]
	}
	rp.Affinity = make([]uint64, n)
	for t := 0; t < n; t++ {
		var mask uint64
		for q, nq := range procs {
			mask |= (p.Affinity[t] >> uint(q) & 1) << uint(nq)
		}
		rp.Affinity[perm[t]] = mask
	}
	return rg, rp, nil
}

func (r *warmRunner) instances() []instance { return r.insts }

func (r *warmRunner) close() {
	r.c.http.CloseIdleConnections()
	r.s.close()
}

func (r *warmRunner) pass(rec *recorder, traced bool) time.Duration {
	before := r.s.srv.Metrics()
	d := r.c.drive(r.s.ts.URL, rec, traced)
	r.tally.add(before, r.s.srv.Metrics())
	return d
}

func (r *warmRunner) validate() (int, []string) { return r.c.validate() }

func (r *warmRunner) counts(m map[string]float64) {
	// Hits bypass the kernel: the solve counters carried by the cached
	// answers belong to set-up, not to the timed ops.
	m["core.generated"], m["core.expanded"], m["core.max_active_set"] = 0, 0, 0
	r.tally.counts(m)
}
