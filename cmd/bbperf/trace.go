package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/grid"
	"repro/internal/hetero"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// span is one timed call from the benchmark into a layer. Calls counts
// the calls a span covers when nanosecond-scale operations are timed in
// batches.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // op id, -1 outside the timed ops
	Calls  int    `json:"calls"`
}

// tracer keeps the run's spans in memory; they are written out when
// the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.base).Nanoseconds(), Parent: parent, Op: op, Calls: 1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.base).Nanoseconds() }

func (t *tracer) endCalls(i, calls int) {
	t.end(i)
	t.spans[i].Calls = calls
}

func (t *tracer) dur(i int) int64 { return t.spans[i].End - t.spans[i].Start }

// selfTimes returns, per span name, each span's self time (its duration
// minus the part its child spans cover) divided by the calls it covers.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/float64(s.Calls))
	}
	return out
}

// perCall is a span name's interquartile mean self time per call in the
// given unit: trimming the outer quartiles keeps a garbage collection or a
// preemption that lands in one batch from dominating the nanosecond-scale
// layers.
func perCall(st map[string][]float64, name string, unit time.Duration) float64 {
	v := st[name]
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	mid := v[len(v)/4 : len(v)-len(v)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid)) / float64(unit)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink int64

// replayDepth caps the outside replay of the search tree's top levels.
const replayDepth = 3

// sigEntry is one state of the signature stream the replay records.
type sigEntry struct {
	lo, hi uint64
	depth  int32
}

// distinct returns each planned graph once, in plan order, up to limit.
func distinct(insts []instance, limit int) []instance {
	type key struct {
		fam  *family
		inst int
	}
	seen := map[key]bool{}
	var out []instance
	for _, in := range insts {
		k := key{in.fam, in.inst}
		if !seen[k] && len(out) < limit {
			seen[k] = true
			out = append(out, in)
		}
	}
	return out
}

// replaySched walks the top levels of each graph's (ready task, processor)
// child tree through sched.State from outside the solver: EST over every
// child, Place+Undo of every child, and the same Place+Undo with the
// incremental signature on, whose states feed the transposition replay.
func replaySched(tr *tracer, insts []instance) []sigEntry {
	var stream []sigEntry
	for _, in := range insts {
		s := tr.begin("sched.NewState", -1, -1)
		st := sched.NewState(in.g, in.p)
		tr.end(s)
		walkChildren(tr, st, 0, false, nil)
		sig := sched.NewState(in.g, in.p)
		sig.EnableSignature()
		walkChildren(tr, sig, 0, true, &stream)
	}
	return stream
}

type child struct {
	t taskgraph.TaskID
	q platform.Proc
}

func walkChildren(tr *tracer, st *sched.State, depth int, sig bool, stream *[]sigEntry) {
	var kids []child
	for _, t := range st.ReadyTasks(nil) {
		for q := 0; q < st.P.M; q++ {
			if st.Allows(t, platform.Proc(q)) {
				kids = append(kids, child{t, platform.Proc(q)})
			}
		}
	}
	if len(kids) == 0 {
		return
	}
	name := "sched.Place+Undo"
	if sig {
		name = "sched.Place+Undo(sig)"
	} else {
		s := tr.begin("sched.EST", -1, -1)
		for _, k := range kids {
			sink += int64(st.EST(k.t, k.q))
		}
		tr.endCalls(s, len(kids))
	}
	s := tr.begin(name, -1, -1)
	for _, k := range kids {
		st.Place(k.t, k.q)
		st.Undo()
	}
	tr.endCalls(s, len(kids))
	if depth+1 >= replayDepth {
		return
	}
	for _, k := range kids {
		st.Place(k.t, k.q)
		if sig {
			lo, hi := st.Signature()
			*stream = append(*stream, sigEntry{lo, hi, int32(st.NumPlaced())})
		}
		walkChildren(tr, st, depth+1, sig, stream)
		st.Undo()
	}
}

// replayTranspose times table construction at the default budget, then
// Store and Probe over the recorded signature stream.
func replayTranspose(tr *tracer, stream []sigEntry) {
	var t *transpose.Table
	for i := 0; i < 3; i++ {
		t = nil
		runtime.GC() // construction then reuses freed memory, as back-to-back solves do
		s := tr.begin("transpose.New", -1, -1)
		t = transpose.New(0)
		tr.end(s)
	}
	s := tr.begin("transpose.Store", -1, -1)
	for _, e := range stream {
		t.Store(e.lo, e.hi, e.depth, 0)
	}
	tr.endCalls(s, len(stream))
	s = tr.begin("transpose.Probe", -1, -1)
	for _, e := range stream {
		if t.Probe(e.lo, e.hi, e.depth, 0) {
			sink++
		}
	}
	tr.endCalls(s, len(stream))
}

// replayPlatform times hetero.Canonicalize on each graph's canonical
// numbering and edf.SchedulePartitioned on the global EDF assignment.
func replayPlatform(tr *tracer, insts []instance) error {
	for _, in := range insts {
		_, perm, err := in.g.Canonical()
		if err != nil {
			return err
		}
		inv := make([]taskgraph.TaskID, len(perm))
		for old, c := range perm {
			inv[c] = taskgraph.TaskID(old)
		}
		s := tr.begin("hetero.Canonicalize", -1, -1)
		_, invProc, _ := hetero.Canonicalize(in.p, inv)
		tr.end(s)
		sink += int64(len(invProc))

		e, err := edf.Schedule(in.g, in.p)
		if err != nil {
			return err
		}
		assign := make([]platform.Proc, in.g.NumTasks())
		for id := range assign {
			assign[id] = e.Schedule.Proc(taskgraph.TaskID(id))
		}
		s = tr.begin("edf.SchedulePartitioned", -1, -1)
		_, err = edf.SchedulePartitioned(in.g, in.p, assign)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// wfqRounds is the number of uncontended admissions timed.
const wfqRounds = 20_000

func replayWFQ(tr *tracer) error {
	q := grid.NewWFQ(grid.WFQConfig{Workers: 1})
	s := tr.begin("grid.WFQ.Acquire+release", -1, -1)
	for i := 0; i < wfqRounds; i++ {
		release, err := q.Acquire(context.Background(), grid.DefaultTenant)
		if err != nil {
			return err
		}
		release()
	}
	tr.endCalls(s, wfqRounds)
	return nil
}

// servingSample is the number of graphs, the cheapest to solve, that the
// serving replay and probe send.
const servingSample = 32

// serveKind is the solve the server runs for a request built from k: the
// request carries no strategy knobs beyond dedup and the partitioned mode.
func serveKind(k kind) kind {
	if k.partitioned {
		return k
	}
	return kind{name: "serve", params: core.Params{Dedup: k.params.Dedup}}
}

// replayServing replays the /v1/solve handler's stages on sample requests
// in handler order — decode, canonicalize, canonical encoding, platform
// canonicalization, solve, response encoding, remap — and then sends the
// same requests to a real server twice (a miss, then a hit). The client
// time not covered by the replayed stages is the HTTP overhead. The
// replayed solves also give the kernel rates of the serving workloads.
func replayServing(tr *tracer, insts []instance, m map[string]float64) error {
	var sample []instance
	for _, in := range insts {
		if in.kind.exact() { // the server runs exact searches only
			sample = append(sample, in)
		}
	}
	sort.SliceStable(sample, func(i, j int) bool { return sample[i].us < sample[j].us })
	sample = sample[:min(len(sample), servingSample)]
	bodies := make([][]byte, len(sample))
	missNS := make([]int64, len(sample))
	hitNS := make([]int64, len(sample))
	var gen, pruned, solveNS int64
	for i, in := range sample {
		body, err := solveBody(in.g, in.p, in.kind)
		if err != nil {
			return err
		}
		bodies[i] = body
		k := serveKind(in.kind)
		var firstErr error
		stage := func(name string, f func() error) int64 {
			s := tr.begin(name, -1, -1)
			err := f()
			tr.end(s)
			if firstErr == nil {
				firstErr = err
			}
			return tr.dur(s)
		}
		var req server.SolveRequest
		var canon *taskgraph.Graph
		var perm []taskgraph.TaskID
		var cp platform.Platform
		var invProc []platform.Proc
		var o outcome
		var cached []byte
		decode := stage("server.decode", func() error { return json.Unmarshal(body, &req) })
		canonical := stage("taskgraph.Canonical", func() (err error) { canon, perm, err = req.Graph.Canonical(); return err })
		if firstErr != nil {
			return fmt.Errorf("serving replay of %s/%d: %w", in.fam.name, in.inst, firstErr)
		}
		encode := stage("taskgraph.encode", func() error {
			for id := 0; id < canon.NumTasks(); id++ {
				canon.TaskPtr(taskgraph.TaskID(id)).Name = ""
			}
			_, err := json.Marshal(canon)
			return err
		})
		inv := make([]taskgraph.TaskID, len(perm))
		for old, c := range perm {
			inv[c] = taskgraph.TaskID(old)
		}
		plat := platform.New(req.Procs)
		plat.Speed, plat.Affinity = req.SpeedFactors, req.Affinities
		platCanon := stage("hetero.Canonicalize", func() error { cp, invProc, _ = hetero.Canonicalize(plat, inv); return nil })
		solve := stage(k.layer(), func() (err error) { o, err = k.solve(context.Background(), canon, cp); return err })
		respEncode := stage("server.encode", func() (err error) { cached, err = json.Marshal(responseOf(o)); return err })
		remapped := stage("server.remap", func() error { _, err := remap(cached, inv, invProc); return err })
		if firstErr != nil {
			return fmt.Errorf("serving replay of %s/%d: %w", in.fam.name, in.inst, firstErr)
		}
		if !k.partitioned {
			gen += o.stats.Generated
			pruned += o.stats.PrunedChildren + o.stats.PrunedActive + o.stats.DedupPruned
			solveNS += solve
		}
		hitNS[i] = decode + canonical + encode + platCanon + remapped
		missNS[i] = hitNS[i] + solve + respEncode
	}

	s := startServer()
	defer s.close()
	c := newClient(nil)
	defer c.http.CloseIdleConnections()
	var overhead []float64
	for i, body := range bodies {
		for _, pipeline := range []int64{missNS[i], hitNS[i]} {
			sp := tr.begin("http.request", -1, -1)
			resp, status, err := post(c.http, s.ts.URL+"/v1/solve", body)
			tr.end(sp)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				in := sample[i]
				err = checkSolveBody(resp, in.g, in.p, in.want)
			}
			if err != nil {
				return fmt.Errorf("serving probe of %s/%d: %w", sample[i].fam.name, sample[i].inst, err)
			}
			overhead = append(overhead, float64(tr.dur(sp)-pipeline)/1e3)
		}
	}
	sort.Float64s(overhead)
	m["server.http_overhead_us"] = median(overhead)
	if solveNS > 0 {
		m["core.vertices_per_s"] = float64(gen) / (float64(solveNS) / 1e9)
		m["core.pruned_ratio"] = ratio(float64(pruned), float64(gen))
	}
	return nil
}

// responseOf builds the wire answer the server caches for a solve.
func responseOf(o outcome) server.SolveResponse {
	resp := server.SolveResponse{
		Feasible: o.sched != nil, Lmax: o.cost, Optimal: o.optimal,
		Stats: server.SearchStats{Generated: o.stats.Generated, Expanded: o.stats.Expanded, Goals: o.stats.Goals, MaxActiveSet: o.stats.MaxActiveSet},
	}
	if o.sched != nil {
		resp.Makespan = o.sched.Makespan()
		resp.Schedule = o.sched.Placements()
	}
	return resp
}

// remap translates a cached answer to the requester's task and processor
// numbering, as the server does for every response.
func remap(body []byte, inv []taskgraph.TaskID, invProc []platform.Proc) ([]byte, error) {
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	for i := range resp.Schedule {
		pl := &resp.Schedule[i]
		pl.Task = inv[pl.Task]
		if invProc != nil {
			pl.Proc = invProc[pl.Proc]
		}
	}
	if invProc != nil {
		sort.Slice(resp.Schedule, func(i, j int) bool {
			a, b := resp.Schedule[i], resp.Schedule[j]
			return a.Proc < b.Proc || (a.Proc == b.Proc && a.Start < b.Start)
		})
	}
	return json.Marshal(resp)
}

// layerMetrics runs the replays over the workload's graphs and derives
// every per-layer metric from the recorded spans and counts.
func layerMetrics(r runner, rec *recorder, quick bool) (map[string]float64, error) {
	limit := 128
	if quick {
		limit = 8
	}
	all := distinct(r.instances(), len(r.instances()))
	insts := all[:min(len(all), limit)]
	m := map[string]float64{}
	r.counts(m)
	if rec.coreNS > 0 {
		m["core.vertices_per_s"] = float64(rec.coreGen) / (float64(rec.coreNS) / 1e9)
	}
	tr := &rec.tr
	runtime.GC()
	stream := replaySched(tr, insts)
	replayTranspose(tr, stream)
	if err := replayPlatform(tr, insts); err != nil {
		return nil, err
	}
	if err := replayWFQ(tr); err != nil {
		return nil, err
	}
	served := map[string]float64{}
	if err := replayServing(tr, all, served); err != nil {
		return nil, err
	}
	m["server.http_overhead_us"] = served["server.http_overhead_us"]
	for _, name := range []string{"core.vertices_per_s", "core.pruned_ratio"} {
		if _, ok := m[name]; !ok || m[name] == 0 {
			m[name] = served[name]
		}
	}
	st := tr.selfTimes()
	m["sched.place_undo_ns"] = perCall(st, "sched.Place+Undo", time.Nanosecond)
	m["sched.est_ns"] = perCall(st, "sched.EST", time.Nanosecond)
	m["sched.sig_place_undo_ns"] = perCall(st, "sched.Place+Undo(sig)", time.Nanosecond)
	m["sched.new_state_us"] = perCall(st, "sched.NewState", time.Microsecond)
	m["transpose.new_ms"] = perCall(st, "transpose.New", time.Millisecond)
	m["transpose.probe_ns"] = perCall(st, "transpose.Probe", time.Nanosecond)
	m["transpose.store_ns"] = perCall(st, "transpose.Store", time.Nanosecond)
	m["hetero.canonicalize_us"] = perCall(st, "hetero.Canonicalize", time.Microsecond)
	m["edf.partitioned_us"] = perCall(st, "edf.SchedulePartitioned", time.Microsecond)
	m["taskgraph.canonical_us"] = perCall(st, "taskgraph.Canonical", time.Microsecond)
	m["taskgraph.encode_us"] = perCall(st, "taskgraph.encode", time.Microsecond)
	m["server.decode_us"] = perCall(st, "server.decode", time.Microsecond)
	m["server.encode_us"] = perCall(st, "server.encode", time.Microsecond)
	m["server.remap_us"] = perCall(st, "server.remap", time.Microsecond)
	m["grid.wfq_admit_ns"] = perCall(st, "grid.WFQ.Acquire+release", time.Nanosecond)
	return m, nil
}
