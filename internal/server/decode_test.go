package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hetero"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// refGraph decodes a graph member the way the server did before the
// one-pass decoder: encoding/json into a mirror of the taskgraph codec's
// records, then the same validation and installation. It runs no code of
// the new decoders. It is an Unmarshaler, not a bare json.RawMessage, so
// that every occurrence of a repeated graph member is decoded as it
// arrives, exactly as UnmarshalJSON on the old *Graph field was; null
// clears it as null cleared that pointer.
type refGraph struct{ g *taskgraph.Graph }

func (rg *refGraph) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		rg.g = nil
		return nil
	}
	var raw struct {
		Tasks    []taskgraph.Task    `json:"tasks"`
		Channels []taskgraph.Channel `json:"channels"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	g := taskgraph.New(len(raw.Tasks))
	for i, t := range raw.Tasks {
		if t.ID != taskgraph.TaskID(i) {
			return errors.New("task IDs must be dense and ordered")
		}
		g.AddTask(t)
	}
	for _, c := range raw.Channels {
		if err := g.AddEdge(c.Src, c.Dst, c.Size); err != nil {
			return err
		}
		ch, _ := g.ChannelPtr(c.Src, c.Dst)
		ch.Arrival, ch.Deadline = c.Arrival, c.Deadline
	}
	if err := g.Validate(); err != nil {
		return err
	}
	rg.g = g
	return nil
}

// solveMirror is SolveRequest with the graph decoded by refGraph: the
// reference the fuzz target and the decode benchmark hold the one-pass
// decoder to.
type solveMirror struct {
	Graph        refGraph  `json:"graph"`
	Procs        int       `json:"procs"`
	SpeedFactors []float64 `json:"speed_factors,omitempty"`
	Affinities   []uint64  `json:"affinities,omitempty"`
	Mode         string    `json:"mode,omitempty"`
	Select       string    `json:"select,omitempty"`
	Branch       string    `json:"branch,omitempty"`
	Bound        string    `json:"bound,omitempty"`
	BR           float64   `json:"br,omitempty"`
	BudgetMS     int64     `json:"budget_ms,omitempty"`
	Workers      int       `json:"workers,omitempty"`
	Distributed  bool      `json:"distributed,omitempty"`
	Dedup        bool      `json:"dedup,omitempty"`
}

// referenceDecode decodes a body as the server did before: json.Decoder
// reads the first value into the mirror.
func referenceDecode(body []byte) (SolveRequest, error) {
	var m solveMirror
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
		return SolveRequest{}, err
	}
	return SolveRequest{
		GraphRequest: GraphRequest{Graph: m.Graph.g, Procs: m.Procs, SpeedFactors: m.SpeedFactors, Affinities: m.Affinities},
		Mode:         m.Mode, Select: m.Select, Branch: m.Branch, Bound: m.Bound, BR: m.BR,
		BudgetMS: m.BudgetMS, Workers: m.Workers, Distributed: m.Distributed,
		Dedup: m.Dedup,
	}, nil
}

// sameGraph reports whether two graphs (possibly nil) hold the same tasks,
// names included, and the same channels in the same order.
func sameGraph(a, b *taskgraph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a.Tasks(), b.Tasks()) && reflect.DeepEqual(a.Channels(), b.Channels())
}

// FuzzSolveRequest is the differential check of the one-pass request
// decoder against encoding/json: both must accept and reject the same
// bodies, and on accepted ones give DeepEqual envelopes and equal graphs.
// An accepted request then runs the validation and keying pipeline of
// handleSolve, which must never panic.
func FuzzSolveRequest(f *testing.F) {
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := referenceDecode(body)
		var got SolveRequest
		gerr := decodeRequest(body, &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference err=%v, one-pass err=%v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !sameGraph(got.Graph, want.Graph) {
			t.Fatalf("graphs differ")
		}
		req := got
		got.Graph, want.Graph = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("envelopes differ:\none-pass  %#v\nreference %#v", got, want)
		}

		plat, err := req.platform()
		if err != nil {
			return
		}
		partitioned, err := req.partitioned()
		if err != nil {
			return
		}
		params, err := req.params()
		if err != nil {
			return
		}
		budget, err := budgetFrom(req.BudgetMS, cfg)
		if err != nil {
			return
		}
		cg, err := canonicalize(req.Graph)
		if err != nil {
			t.Fatalf("canonicalize a validated graph: %v", err)
		}
		_, _, platKey := hetero.Canonicalize(plat, cg.inv)
		_ = solveKey(cg, platKey, params, req, partitioned, budget)
	})
}

// testRequests returns one value of every request type with every
// json-tagged field set (checked by allFieldsSet).
func testRequests(t *testing.T) []any {
	g := testGraph(t, 3)
	n := g.NumTasks()
	aff := make([]uint64, n)
	for i := range aff {
		aff[i] = uint64(1 + i%3)
	}
	gr := GraphRequest{Graph: g, Procs: 3, SpeedFactors: []float64{1, 2.5, 0.125}, Affinities: aff}
	solve := SolveRequest{
		GraphRequest: gr, Mode: "global", Select: "llb", Branch: "df", Bound: "lb0", BR: 0.25,
		BudgetMS: 1500, Workers: 4, Distributed: true, Dedup: true,
	}
	other := solve
	other.GraphRequest = GraphRequest{Graph: testGraph(t, 4), Procs: 2, SpeedFactors: []float64{3, 1}, Affinities: []uint64{1, 2, 3}}
	return []any{
		&solve,
		&BatchRequest{Requests: []SolveRequest{solve, other}},
		&AnytimeRequest{GraphRequest: gr, BudgetMS: 900, Workers: 3, ImproveIters: 77, Seed: -5},
		&ListRequest{GraphRequest: gr, Policy: "slack"},
		&AnalyzeRequest{GraphRequest: gr},
		&RecoverRequest{
			GraphRequest: gr,
			Schedule:     []sched.Placement{{Task: 1, Proc: 2, Start: 3, Finish: 9}, {Task: 2, Proc: 1, Start: 4, Finish: 7}},
			Faults:       []FaultSpec{{Kind: "exec-overrun", Proc: 1, At: 5, Task: 2, Extra: 3}},
			BudgetMS:     700, Workers: 2,
		},
	}
}

// allFieldsSet fails the test for any json-tagged field left at its zero
// value in v, looking into embedded structs and the first element of
// slices of structs.
func allFieldsSet(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if f.Anonymous {
			allFieldsSet(t, fv, path+"."+f.Name)
			continue
		}
		if f.Tag.Get("json") == "" {
			continue
		}
		if fv.IsZero() {
			t.Errorf("%s.%s is zero: set it so the round trip covers it", path, f.Name)
			continue
		}
		if fv.Kind() == reflect.Slice && fv.Type().Elem().Kind() == reflect.Struct {
			allFieldsSet(t, fv.Index(0), path+"."+f.Name+"[0]")
		}
	}
}

// takeGraphs moves every graph out of the request v points to, in field
// order, so that the rest compares with DeepEqual.
func takeGraphs(v reflect.Value) []*taskgraph.Graph {
	var out []*taskgraph.Graph
	switch v.Kind() {
	case reflect.Pointer:
		if v.Type() == reflect.TypeOf((*taskgraph.Graph)(nil)) {
			out = append(out, v.Interface().(*taskgraph.Graph))
			v.SetZero()
		} else if !v.IsNil() {
			out = append(out, takeGraphs(v.Elem())...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, takeGraphs(v.Field(i))...)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = append(out, takeGraphs(v.Index(i))...)
		}
	}
	return out
}

// TestRequestRoundTrip: a value of every request type with every field set
// survives json.Marshal and the one-pass decoder unchanged, so a field
// added to a request type without a decoder case fails here.
func TestRequestRoundTrip(t *testing.T) {
	for _, v := range testRequests(t) {
		typ := reflect.TypeOf(v).Elem()
		t.Run(typ.Name(), func(t *testing.T) {
			allFieldsSet(t, reflect.ValueOf(v).Elem(), typ.Name())
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			back := reflect.New(typ)
			if err := decodeRequest(body, back.Interface().(request)); err != nil {
				t.Fatalf("decode: %v", err)
			}
			wantGraphs, gotGraphs := takeGraphs(reflect.ValueOf(v)), takeGraphs(back)
			if len(wantGraphs) != len(gotGraphs) {
				t.Fatalf("%d graphs decoded, want %d", len(gotGraphs), len(wantGraphs))
			}
			for i := range wantGraphs {
				// The codec writes channels in (src, dst) order, so compare
				// encodings rather than insertion orders.
				got, _ := json.Marshal(gotGraphs[i])
				want, _ := json.Marshal(wantGraphs[i])
				if !bytes.Equal(got, want) {
					t.Fatalf("graph %d differs:\n got %s\nwant %s", i, got, want)
				}
			}
			if !reflect.DeepEqual(back.Elem().Interface(), reflect.ValueOf(v).Elem().Interface()) {
				t.Fatalf("round trip differs:\n got %#v\nwant %#v", back.Elem().Interface(), v)
			}
		})
	}
}

// TestMalformedBodyCounters: a body that does not decode is a 400, one
// request and one error on every endpoint. Every endpoint decodes before
// it admits, so that holds on a draining server too.
func TestMalformedBodyCounters(t *testing.T) {
	for _, draining := range []bool{false, true} {
		for _, ep := range []string{"solve", "batch", "anytime", "list", "analyze", "recover"} {
			name := ep
			if draining {
				name += " while draining"
			}
			t.Run(name, func(t *testing.T) {
				s := New(Config{Workers: 1})
				defer s.Close()
				if draining {
					s.Drain()
				}
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				resp, err := http.Post(ts.URL+"/v1/"+ep, "application/json", strings.NewReader(`{"procs":`))
				if err != nil {
					t.Fatal(err)
				}
				_ = resp.Body.Close() //bbvet:ignore errcheck
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", resp.StatusCode)
				}
				got := s.Metrics().Endpoints[ep]
				if got.Requests != 1 || got.Errors != 1 {
					t.Fatalf("requests=%d errors=%d, want 1/1", got.Requests, got.Errors)
				}
			})
		}
	}
}

// TestBodyOverLimitRejected: the body is read whole before decoding, so one
// longer than maxBodyBytes is a 400 even when its first JSON value ends
// early (json.Decoder used to accept that value and ignore the rest).
func TestBodyOverLimitRejected(t *testing.T) {
	s := New(Config{Workers: 1, DefaultBudget: time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, err := json.Marshal(solveReq(smallGraph(t), 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() //bbvet:ignore errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit body: status %d", resp.StatusCode)
	}
	big := append(req, bytes.Repeat([]byte(" "), maxBodyBytes)...)
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() //bbvet:ignore errcheck
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-limit body: status %d, want 400", resp.StatusCode)
	}
}

// decodeBodies returns a homogeneous m=2 solve body and a heterogeneous
// one, the two request shapes of the serving benchmarks.
func decodeBodies(b *testing.B) map[string][]byte {
	g := testGraph(b, 11)
	aff := make([]uint64, g.NumTasks())
	for i := range aff {
		aff[i] = 3 + uint64(i%2)*4
	}
	out := map[string][]byte{}
	for name, req := range map[string]SolveRequest{
		"m2":     solveReq(g, 2, 0),
		"hetero": {GraphRequest: GraphRequest{Graph: g, Procs: 3, SpeedFactors: []float64{1, 1.5, 0.5}, Affinities: aff}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		out[name] = body
	}
	return out
}

// Benchmark results land in these, so the compiler keeps the calls.
var (
	sinkRequest SolveRequest
	sinkBytes   []byte
	sinkKey     string
)

// BenchmarkDecode compares the request decode the server ran before
// (json.Decoder into the mirror, the graph through encoding/json and the
// same build) with the one-pass decoder.
func BenchmarkDecode(b *testing.B) {
	for _, shape := range []string{"m2", "hetero"} {
		body := decodeBodies(b)[shape]
		b.Run(shape+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := referenceDecode(body)
				if err != nil {
					b.Fatal(err)
				}
				sinkRequest = req
			}
		})
		b.Run(shape+"/one-pass", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req SolveRequest
				if err := decodeRequest(body, &req); err != nil {
					b.Fatal(err)
				}
				sinkRequest = req
			}
		})
	}
}
