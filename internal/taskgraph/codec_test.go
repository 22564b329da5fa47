package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	for name, g := range map[string]*Graph{
		"diamond": Diamond(),
		"ladder":  LadderGraph(3, 4, 2),
		"indep":   Independent(5, 7),
	} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip changed shape: %v vs %v", name, &back, g)
		}
		for id := 0; id < g.NumTasks(); id++ {
			if back.Task(TaskID(id)) != g.Task(TaskID(id)) {
				t.Fatalf("%s: task %d changed: %+v vs %+v", name, id, back.Task(TaskID(id)), g.Task(TaskID(id)))
			}
		}
		for _, c := range g.Channels() {
			bc, ok := back.Channel(c.Src, c.Dst)
			if !ok || bc != c {
				t.Fatalf("%s: channel %v changed to %v (ok=%v)", name, c, bc, ok)
			}
		}
	}
}

func TestJSONDeterministic(t *testing.T) {
	g := LadderGraph(3, 4, 2)
	a, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("JSON encoding is not deterministic across clones")
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{"tasks": 17}`,
		"sparse ids":    `{"tasks":[{"id":5,"exec":1,"deadline":10}],"channels":[]}`,
		"bad edge":      `{"tasks":[{"id":0,"exec":1,"deadline":10}],"channels":[{"src":0,"dst":9,"size":1}]}`,
		"cycle":         `{"tasks":[{"id":0,"exec":1,"deadline":10},{"id":1,"exec":1,"deadline":10}],"channels":[{"src":0,"dst":1,"size":1},{"src":1,"dst":0,"size":1}]}`,
		"zero exec":     `{"tasks":[{"id":0,"exec":0,"deadline":10}],"channels":[]}`,
		"tight window":  `{"tasks":[{"id":0,"exec":9,"deadline":3}],"channels":[]}`,
		"self loop":     `{"tasks":[{"id":0,"exec":1,"deadline":10}],"channels":[{"src":0,"dst":0,"size":1}]}`,
		"dup edge":      `{"tasks":[{"id":0,"exec":1,"deadline":10},{"id":1,"exec":1,"deadline":10}],"channels":[{"src":0,"dst":1,"size":1},{"src":0,"dst":1,"size":2}]}`,
		"negative size": `{"tasks":[{"id":0,"exec":1,"deadline":10},{"id":1,"exec":1,"deadline":10}],"channels":[{"src":0,"dst":1,"size":-4}]}`,
	}
	for name, doc := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(doc), &g); err == nil {
			t.Errorf("%s: malformed document accepted", name)
		}
	}
}

func TestJSONPreservesChannelWindows(t *testing.T) {
	g := Diamond()
	ch, _ := g.ChannelPtr(0, 1)
	ch.Arrival, ch.Deadline = 7, 13
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	bc, _ := back.Channel(0, 1)
	if bc.Arrival != 7 || bc.Deadline != 13 {
		t.Fatalf("channel window lost: %+v", bc)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	g := ForkJoin(3, 6, 2)
	if err := g.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("file round trip changed shape")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("LoadFile on missing file succeeded")
	}
}

func TestDOTOutput(t *testing.T) {
	g := Diamond()
	dot := g.DOT()
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3", "c=5"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if g.DOT() != dot {
		t.Fatal("DOT output is not deterministic")
	}
	// Zero-size arcs are rendered without labels.
	c := Chain(2, 3, 0)
	if strings.Contains(c.DOT(), "label=\"0\"") {
		t.Fatal("zero-size arc rendered with a label")
	}
}

// referenceUnmarshal is the graph decoder as it stood before the one-pass
// reader: encoding/json into graphJSON, then validation and installation.
// FuzzGraphJSON holds UnmarshalJSON to it; it runs no code of the reader.
func referenceUnmarshal(data []byte) (*Graph, error) {
	var raw graphJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("taskgraph: decode: %w", err)
	}
	ng := New(len(raw.Tasks))
	for i, t := range raw.Tasks {
		if t.ID != TaskID(i) {
			return nil, fmt.Errorf("taskgraph: decode: task %d stored with ID %d (IDs must be dense and ordered)", i, t.ID)
		}
		ng.AddTask(t)
	}
	for _, c := range raw.Channels {
		if err := ng.AddEdge(c.Src, c.Dst, c.Size); err != nil {
			return nil, fmt.Errorf("taskgraph: decode: %w", err)
		}
		ch, _ := ng.ChannelPtr(c.Src, c.Dst)
		ch.Arrival, ch.Deadline = c.Arrival, c.Deadline
	}
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: decode: %w", err)
	}
	return ng, nil
}

// sameGraph reports whether two graphs hold the same tasks, names
// included, and the same channels in the same insertion order.
func sameGraph(a, b *Graph) bool {
	return reflect.DeepEqual(a.Tasks(), b.Tasks()) && reflect.DeepEqual(a.Channels(), b.Channels())
}

// FuzzGraphJSON is the differential check of the one-pass graph decoder:
// on every input, UnmarshalJSON and referenceUnmarshal must both accept or
// both reject, and accepted graphs must be equal.
func FuzzGraphJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := referenceUnmarshal(data)
		var got Graph
		gerr := got.UnmarshalJSON(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference err=%v, one-pass err=%v", werr, gerr)
		}
		if werr == nil && !sameGraph(&got, want) {
			t.Fatalf("graphs differ:\none-pass %+v %+v\nreference %+v %+v", got.Tasks(), got.Channels(), want.Tasks(), want.Channels())
		}
	})
}

// TestGraphJSONMatchesReference pins the encoding/json rules the one-pass
// decoder reproduces, on inputs that each exercise one of them.
func TestGraphJSONMatchesReference(t *testing.T) {
	for _, doc := range []string{
		`null`,
		` {"tasks":[{"id":0,"exec":4,"deadline":20}],"channels":[]} `,
		`{"TASKS":[{"ID":0,"Exec":4,"DeadLine":20}],"Channels":null}`,
		`{"tasKs":[{"id":0,"exec":4,"deadline":20},{"id":1,"exec":1,"deadline":9}],"channels":[{"ſrc":0,"dst":1,"size":2}]}`,
		`{"tasks":[{"id":0,"exec":4,"deadline":20},{"id":1,"exec":2,"deadline":9}],"tasks":[{"id":0,"name":"a"}],"tasks":[{"id":0},{"id":1}]}`,
		`{"tasks":null,"tasks":[{"id":0,"exec":1,"deadline":5,"period":null,"name":null}],"channels":null}`,
		`{"tasks":[{"id":0,"name":"été 𝄞","exec":2,"deadline":8}]}`,
		"{\"tasks\":[{\"id\":0,\"name\":\"\xff\xfe\",\"exec\":2,\"deadline\":8}]}",
		`{"meta":{"a":[1,-2.5e3,{"b":null}],"c":"\"x\\"},"tasks":[{"id":0,"exec":1,"deadline":1}]}`,
		`{"tasks":[{"id":0,"exec":2.0,"deadline":5}]}`,
		`{"tasks":[{"id":0,"exec":1e1,"deadline":50}]}`,
		`{"tasks":[{"id":0,"exec":"1","deadline":5}]}`,
		`{"tasks":[{"id":2147483648,"exec":1,"deadline":5}]}`,
		`{"tasks":[{"id":-0,"exec":1,"deadline":5}]}`,
		`{"tasks":[{"id":0,"exec":01,"deadline":5}]}`,
		`{"tasks":[],"channels":[]} x`,
		`{"tasks":[],"channels":[]}}`,
		`{"tasks":[{"id":0,"exec":1,"deadline":5}],}`,
		`{"tasks":[{"id":0,"exec":1,"deadline":5},]}`,
		`{"a":"\x"}`,
		`{"a":tru}`,
		`[]`,
		``,
		`{"tasks":[{"id":0,"exec":1,"deadline":5}],"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
	} {
		want, werr := referenceUnmarshal([]byte(doc))
		var got Graph
		gerr := got.UnmarshalJSON([]byte(doc))
		short := doc
		if len(short) > 80 {
			short = short[:80] + "…"
		}
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: reference err=%v, one-pass err=%v", short, werr, gerr)
			continue
		}
		if werr == nil && !sameGraph(&got, want) {
			t.Errorf("%s: graphs differ: %+v vs %+v", short, got.Tasks(), want.Tasks())
		}
	}
}

// TestAppendKeyIdentity: the binary key separates graphs that differ in any
// scheduling parameter or arc, ignores task names and channel insertion
// order, and has the documented fixed-width layout.
func TestAppendKeyIdentity(t *testing.T) {
	base := LadderGraph(3, 4, 2)
	key := string(base.AppendKey(nil))
	if want := len(keyTag) + 16 + 32*base.NumTasks() + 32*base.NumEdges(); len(key) != want {
		t.Fatalf("key is %d bytes, want %d", len(key), want)
	}
	named := base.Clone()
	named.TaskPtr(0).Name = "renamed"
	if string(named.AppendKey(nil)) != key {
		t.Fatal("task name changed the key")
	}
	reordered := New(base.NumTasks())
	for _, tk := range base.Tasks() {
		reordered.AddTask(tk)
	}
	arcs := base.Channels()
	for i := len(arcs) - 1; i >= 0; i-- {
		reordered.MustAddEdge(arcs[i].Src, arcs[i].Dst, arcs[i].Size)
	}
	if string(reordered.AppendKey(nil)) != key {
		t.Fatal("channel insertion order changed the key")
	}
	edits := map[string]func(g *Graph){
		"exec":     func(g *Graph) { g.TaskPtr(1).Exec++ },
		"phase":    func(g *Graph) { g.TaskPtr(1).Phase++ },
		"deadline": func(g *Graph) { g.TaskPtr(1).Deadline++ },
		"period":   func(g *Graph) { g.TaskPtr(1).Period = 1000 },
		"size":     func(g *Graph) { c, _ := g.ChannelPtr(arcs[0].Src, arcs[0].Dst); c.Size++ },
		"arrival":  func(g *Graph) { c, _ := g.ChannelPtr(arcs[0].Src, arcs[0].Dst); c.Arrival++ },
		"window":   func(g *Graph) { c, _ := g.ChannelPtr(arcs[0].Src, arcs[0].Dst); c.Deadline++ },
		"arc":      func(g *Graph) { g.MustAddEdge(0, TaskID(g.NumTasks()-1), 0) },
		"task":     func(g *Graph) { g.AddTask(Task{Exec: 1, Deadline: 5}) },
	}
	for name, edit := range edits {
		g := base.Clone()
		edit(g)
		if string(g.AppendKey(nil)) == key {
			t.Errorf("%s edit left the key unchanged", name)
		}
	}
}
