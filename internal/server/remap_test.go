package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/hetero"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// remapReference is remapBody as it stood before the splice: a JSON round
// trip of the whole cached response. The splice must produce its bytes.
func remapReference[R any](cg canonGraph, invProc []platform.Proc, body []byte, placements func(*R) []sched.Placement) ([]byte, error) {
	if (cg.identity && invProc == nil) || body == nil {
		return body, nil
	}
	var resp R
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	pls := placements(&resp)
	for i := range pls {
		pls[i].Task = cg.inv[pls[i].Task]
		if invProc != nil {
			pls[i].Proc = invProc[pls[i].Proc]
		}
	}
	if invProc != nil {
		sort.Slice(pls, func(i, j int) bool {
			if pls[i].Proc != pls[j].Proc {
				return pls[i].Proc < pls[j].Proc
			}
			return pls[i].Start < pls[j].Start
		})
	}
	return json.Marshal(resp)
}

func solvePlacements(r *SolveResponse) []sched.Placement     { return r.Schedule }
func anytimePlacements(r *AnytimeResponse) []sched.Placement { return r.Schedule }
func listPlacements(r *ListResponse) []sched.Placement       { return r.Schedule }

// remapFixture is a cached-body fixture: a list schedule of a paper-default
// graph on m processors, and a non-identity task renumbering.
func remapFixture(t testing.TB, seed int64, m int) ([]sched.Placement, canonGraph, []platform.Proc) {
	g := testGraph(t, seed)
	res, err := listsched.Schedule(g, platform.New(m), listsched.EDF)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cg := canonGraph{inv: make([]taskgraph.TaskID, g.NumTasks())}
	for i, p := range rng.Perm(g.NumTasks()) {
		cg.inv[i] = taskgraph.TaskID(p)
	}
	invProc := make([]platform.Proc, m)
	for i, p := range rng.Perm(m) {
		invProc[i] = platform.Proc(p)
	}
	return res.Schedule.Placements(), cg, invProc
}

func mustMarshal(t testing.TB, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRemapSpliceMatchesReference: on Solve, Anytime and List bodies —
// feasible, infeasible without a schedule, and with "schedule":null or [] —
// under identity and non-identity task and processor maps, the splice
// returns exactly the bytes of the JSON round trip.
func TestRemapSpliceMatchesReference(t *testing.T) {
	pls, perm, invProc := remapFixture(t, 21, 3)
	stats := SearchStats{Generated: 99, Expanded: 12, Goals: 3, MaxActiveSet: 7, TimedOut: true}
	feasible := mustMarshal(t, SolveResponse{Feasible: true, Lmax: -3, Makespan: 40, Optimal: true, Reason: "exhausted", Stats: stats, Schedule: pls})
	infeasible := mustMarshal(t, SolveResponse{Reason: "exhausted", Stats: stats})
	nullSolve := []byte(strings.TrimSuffix(string(infeasible), "}") + `,"schedule":null}`)
	emptySolve := []byte(strings.TrimSuffix(string(infeasible), "}") + `,"schedule":[]}`)
	anytime := mustMarshal(t, AnytimeResponse{Lmax: 5, Lower: 2, Gap: 3, Stage: "improve", Greedy: "EDF", Stats: stats, Schedule: pls})
	anytimeNull := mustMarshal(t, AnytimeResponse{Lmax: 5, Stage: "greedy", Greedy: "EDF"})
	anytimeEmpty := mustMarshal(t, AnytimeResponse{Lmax: 5, Stage: "greedy", Greedy: "EDF", Schedule: []sched.Placement{}})
	list := mustMarshal(t, ListResponse{Lmax: 7, Makespan: 30, Policy: "EDF", Schedule: pls})

	identity := canonGraph{inv: make([]taskgraph.TaskID, len(perm.inv)), identity: true}
	for i := range identity.inv {
		identity.inv[i] = taskgraph.TaskID(i)
	}
	maps := []struct {
		name    string
		cg      canonGraph
		invProc []platform.Proc
	}{
		{"identity", identity, nil},
		{"tasks", perm, nil},
		{"procs", identity, invProc},
		{"tasks+procs", perm, invProc},
	}
	type body struct {
		name string
		b    []byte
		ref  func(canonGraph, []platform.Proc, []byte) ([]byte, error)
		omit bool
	}
	solveRef := func(cg canonGraph, ip []platform.Proc, b []byte) ([]byte, error) {
		return remapReference(cg, ip, b, solvePlacements)
	}
	anytimeRef := func(cg canonGraph, ip []platform.Proc, b []byte) ([]byte, error) {
		return remapReference(cg, ip, b, anytimePlacements)
	}
	listRef := func(cg canonGraph, ip []platform.Proc, b []byte) ([]byte, error) {
		return remapReference(cg, ip, b, listPlacements)
	}
	bodies := []body{
		{"solve", feasible, solveRef, true},
		{"solve-infeasible", infeasible, solveRef, true},
		{"solve-null", nullSolve, solveRef, true},
		{"solve-empty", emptySolve, solveRef, true},
		{"anytime", anytime, anytimeRef, false},
		{"anytime-null", anytimeNull, anytimeRef, false},
		{"anytime-empty", anytimeEmpty, anytimeRef, false},
		{"list", list, listRef, false},
	}
	for _, bd := range bodies {
		for _, mp := range maps {
			want, err := bd.ref(mp.cg, mp.invProc, bd.b)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", bd.name, mp.name, err)
			}
			got, err := remapBody(mp.cg, mp.invProc, bd.b, bd.omit)
			if err != nil {
				t.Fatalf("%s/%s: splice: %v", bd.name, mp.name, err)
			}
			if string(got) != string(want) {
				t.Errorf("%s/%s:\n splice    %s\n reference %s", bd.name, mp.name, got, want)
			}
		}
	}
}

// TestRemapRejectsBadBodies: a cached body is bytes from the local cache
// or any peer's put, so the splice checks every index it renumbers
// through, and the placements' form, and fails instead of panicking.
func TestRemapRejectsBadBodies(t *testing.T) {
	cg := canonGraph{inv: []taskgraph.TaskID{1, 0}}
	invProc := []platform.Proc{1, 0}
	head := `{"feasible":true,"lmax":1,"makespan":4,"optimal":true,"guarantee":false,"reason":"exhausted","stats":{"generated":1,"expanded":1,"goals":1,"max_active_set":1,"timed_out":false},"schedule":`
	for name, tail := range map[string]string{
		"task out of range":  `[{"task":7,"proc":0,"start":0,"finish":2}]}`,
		"negative task":      `[{"task":-1,"proc":0,"start":0,"finish":2}]}`,
		"proc out of range":  `[{"task":0,"proc":2,"start":0,"finish":2}]}`,
		"negative proc":      `[{"task":0,"proc":-1,"start":0,"finish":2}]}`,
		"proc overflow":      `[{"task":0,"proc":300,"start":0,"finish":2}]}`,
		"task overflow":      `[{"task":4294967296,"proc":0,"start":0,"finish":2}]}`,
		"not compact":        `[{"task": 0,"proc":0,"start":0,"finish":2}]}`,
		"fields reordered":   `[{"proc":0,"task":0,"start":0,"finish":2}]}`,
		"extra field":        `[{"task":0,"proc":0,"start":0,"finish":2,"x":1}]}`,
		"leading zero":       `[{"task":01,"proc":0,"start":0,"finish":2}]}`,
		"fraction":           `[{"task":0,"proc":0,"start":0.5,"finish":2}]}`,
		"truncated":          `[{"task":0,"proc":0,"start":0,"finish":2}`,
		"trailing bytes":     `[{"task":0,"proc":0,"start":0,"finish":2}]}x`,
		"not an array":       `{"task":0}}`,
		"unterminated array": `[{"task":0,"proc":0,"start":0,"finish":2},]}`,
	} {
		if out, err := remapBody(cg, invProc, []byte(head+tail), true); err == nil {
			t.Errorf("%s: accepted, gave %s", name, out)
		}
	}
}

// requestKey computes the cache key handleSolve derives for req.
func requestKey(t testing.TB, s *Server, req SolveRequest) (string, canonGraph) {
	t.Helper()
	plat, err := req.platform()
	if err != nil {
		t.Fatal(err)
	}
	partitioned, err := req.partitioned()
	if err != nil {
		t.Fatal(err)
	}
	params, err := req.params()
	if err != nil {
		t.Fatal(err)
	}
	budget, err := budgetFrom(req.BudgetMS, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	params.Resources.TimeLimit = budget
	cg, err := canonicalize(req.Graph)
	if err != nil {
		t.Fatal(err)
	}
	_, _, platKey := hetero.Canonicalize(plat, cg.inv)
	return solveKey(cg, platKey, params, req, partitioned, budget), cg
}

// TestBadCachedBodyIs500: a malformed body under a request's key (as a
// peer's put could leave it) answers that request with a 500, and the
// server keeps serving.
func TestBadCachedBodyIs500(t *testing.T) {
	s := New(Config{Workers: 1, DefaultBudget: 2 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 8)
	perm := make([]taskgraph.TaskID, g.NumTasks())
	for i := range perm {
		perm[i] = taskgraph.TaskID(len(perm) - 1 - i)
	}
	rg, err := taskgraph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	req := solveReq(rg, 2, 1000)
	key, cg := requestKey(t, s, req)
	if cg.identity {
		t.Fatal("fixture request is already canonical; the remap would not run")
	}
	s.cache.Put(key, []byte(`{"feasible":true,"schedule":[{"task":99,"proc":0,"start":0,"finish":1}]}`))
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/solve", solveReq(g, 3, 1000)); resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after the bad body: %d %s", resp.StatusCode, body)
	}
}

// BenchmarkRemap compares the JSON round trip the server ran before with
// the splice, on a 14-task m=2 solve body, renumbering tasks only and
// tasks and processors.
func BenchmarkRemap(b *testing.B) {
	pls, cg, invProc := remapFixture(b, 11, 2)
	body := mustMarshal(b, SolveResponse{Feasible: true, Lmax: -3, Makespan: 40, Optimal: true, Reason: "exhausted",
		Stats: SearchStats{Generated: 1570, Expanded: 505, Goals: 3, MaxActiveSet: 40}, Schedule: pls})
	for _, mp := range []struct {
		name    string
		invProc []platform.Proc
	}{{"tasks", nil}, {"tasks+procs", invProc}} {
		b.Run(mp.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := remapReference(cg, mp.invProc, body, solvePlacements)
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes = out
			}
		})
		b.Run(mp.name+"/splice", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := remapBody(cg, mp.invProc, body, true)
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes = out
			}
		})
	}
}

// referenceKey is the graph half of the cache key as it stood before the
// binary encoding: SHA-256 over the canonical graph's JSON codec bytes.
func referenceKey(canon *taskgraph.Graph) (string, error) {
	raw, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw)), nil
}

// TestCacheKeyClassesMatchReference: over relabeled copies of a few
// graphs and near-miss edits of them, two requests share the binary key
// exactly when they shared the JSON one.
func TestCacheKeyClassesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var graphs []*taskgraph.Graph
	for seed := int64(40); seed < 44; seed++ {
		g := testGraph(t, seed)
		edited := g.Clone()
		edited.TaskPtr(0).Exec++
		named := g.Clone()
		named.TaskPtr(1).Name = "annotated"
		for _, base := range []*taskgraph.Graph{g, edited, named} {
			graphs = append(graphs, base)
			perm := make([]taskgraph.TaskID, base.NumTasks())
			for i, p := range rng.Perm(base.NumTasks()) {
				perm[i] = taskgraph.TaskID(p)
			}
			rg, err := taskgraph.Relabel(base, perm)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, rg)
		}
	}
	keys := make([]string, len(graphs))
	refs := make([]string, len(graphs))
	for i, g := range graphs {
		cg, err := canonicalize(g)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = cg.key
		if refs[i], err = referenceKey(cg.g); err != nil {
			t.Fatal(err)
		}
	}
	for i := range graphs {
		for j := range graphs {
			if (keys[i] == keys[j]) != (refs[i] == refs[j]) {
				t.Fatalf("graphs %d and %d: binary keys equal=%v, JSON keys equal=%v", i, j, keys[i] == keys[j], refs[i] == refs[j])
			}
		}
	}
}

// BenchmarkCacheKey compares the graph key the server computed before
// (JSON-encode the canonical graph, SHA-256, hex) with the binary one.
func BenchmarkCacheKey(b *testing.B) {
	cg, err := canonicalize(testGraph(b, 11))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json+sha256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key, err := referenceKey(cg.g)
			if err != nil {
				b.Fatal(err)
			}
			sinkKey = key
		}
	})
	b.Run("binary+sha256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkKey = graphKey(cg.g)
		}
	})
}
