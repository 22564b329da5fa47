package taskgraph

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/jsonread"
)

// graphJSON is the stable on-disk representation of a Graph. Tasks appear
// in ID order and channels in (src, dst) order, so the encoding of a given
// graph is byte-for-byte reproducible.
type graphJSON struct {
	Tasks    []Task    `json:"tasks"`
	Channels []Channel `json:"channels"`
}

// MarshalJSON encodes the graph as {"tasks": [...], "channels": [...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{Tasks: g.tasks, Channels: g.SortedArcs()})
}

// Member names of graphJSON, Task and Channel, for the one-pass decoder.
var (
	graphFields   = []string{"tasks", "channels"}
	taskFields    = []string{"id", "name", "exec", "phase", "deadline", "period"}
	channelFields = []string{"src", "dst", "size", "arrival", "deadline"}
)

// UnmarshalJSON decodes a graph previously encoded with MarshalJSON. The
// decoded graph is validated (task parameters and acyclicity) before being
// installed, so a *Graph never silently holds a malformed structure. The
// document is read in one pass (internal/jsonread) with encoding/json's
// rules, so it accepts exactly what json.Unmarshal into graphJSON accepts;
// null decodes to the empty graph and trailing bytes are an error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	r := jsonread.New(data)
	raw := readGraph(r)
	if err := r.End(); err != nil {
		return fmt.Errorf("taskgraph: decode: %w", err)
	}
	ng, err := raw.build()
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// DecodeJSON reads one graph value from r, the in-stream form of
// UnmarshalJSON for decoders that carry a graph inside a larger document.
// A failure is recorded in r, and g is then left unchanged.
func (g *Graph) DecodeJSON(r *jsonread.Reader) {
	raw := readGraph(r)
	if r.Err() != nil {
		return
	}
	ng, err := raw.build()
	if err != nil {
		r.Fail(err)
		return
	}
	*g = *ng
}

// readGraph reads a graphJSON value: null leaves it empty, as in
// encoding/json.
func readGraph(r *jsonread.Reader) graphJSON {
	var raw graphJSON
	if r.Null() {
		return raw
	}
	for more := r.Object(); more; more = r.More() {
		switch r.Key(graphFields) {
		case "tasks":
			raw.Tasks = jsonread.Slice(r, raw.Tasks, readTask)
		case "channels":
			raw.Channels = jsonread.Slice(r, raw.Channels, readChannel)
		default:
			r.Skip()
		}
	}
	return raw
}

func readTask(r *jsonread.Reader, t *Task) {
	if r.Null() {
		return
	}
	for more := r.Object(); more; more = r.More() {
		switch r.Key(taskFields) {
		case "id":
			jsonread.Int(r, &t.ID)
		case "name":
			jsonread.String(r, &t.Name)
		case "exec":
			jsonread.Int(r, &t.Exec)
		case "phase":
			jsonread.Int(r, &t.Phase)
		case "deadline":
			jsonread.Int(r, &t.Deadline)
		case "period":
			jsonread.Int(r, &t.Period)
		default:
			r.Skip()
		}
	}
}

func readChannel(r *jsonread.Reader, c *Channel) {
	if r.Null() {
		return
	}
	for more := r.Object(); more; more = r.More() {
		switch r.Key(channelFields) {
		case "src":
			jsonread.Int(r, &c.Src)
		case "dst":
			jsonread.Int(r, &c.Dst)
		case "size":
			jsonread.Int(r, &c.Size)
		case "arrival":
			jsonread.Int(r, &c.Arrival)
		case "deadline":
			jsonread.Int(r, &c.Deadline)
		default:
			r.Skip()
		}
	}
}

// build installs decoded records into a validated graph: task IDs must be
// dense and in order, and every channel must be a new arc between known
// tasks.
func (raw graphJSON) build() (*Graph, error) {
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

// keyTag heads the binary identity encoding written by AppendKey and names
// its layout; a change of layout must change the tag.
const keyTag = "taskgraph/key/v1"

// AppendKey appends the graph's binary identity to b: keyTag, then fixed-
// width little-endian fields — n and the arc count (8 bytes each), every
// task's ⟨c, φ, d, T⟩ in ID order (8 bytes each), and every arc's
// ⟨src, dst⟩ (4 bytes each) and channel ⟨m, a, d⟩ (8 bytes each) in
// (src, dst) order. Every field sits at a position fixed by n and the arc
// count, so two graphs append the same bytes exactly when they have the
// same tasks and channels; task names, which never affect scheduling, are
// left out. On a Canonical graph it is an exact, label-insensitive
// identity, which is what the server's result cache keys on.
func (g *Graph) AppendKey(b []byte) []byte {
	b = append(b, keyTag...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.tasks)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.list)))
	for i := range g.tasks {
		t := &g.tasks[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Exec))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Phase))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Deadline))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Period))
	}
	arcs := slices.Clone(g.list)
	slices.SortFunc(arcs, func(x, y Channel) int {
		if c := cmp.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return cmp.Compare(x.Dst, y.Dst)
	})
	for _, c := range arcs {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Src))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Dst))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Size))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Arrival))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Deadline))
	}
	return b
}

// WriteJSON writes the indented JSON encoding of the graph to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadJSON decodes a graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadFile reads a graph from the named file, selecting the codec by
// extension: ".stg" for the text format, JSON otherwise.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //bbvet:ignore errcheck (read-only descriptor; nothing to recover from)
	if strings.HasSuffix(path, ".stg") {
		return ReadSTG(f)
	}
	return ReadJSON(f)
}

// SaveFile writes the graph to the named file, selecting the codec by
// extension: ".stg" for the text format, JSON otherwise.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := g.WriteJSON
	if strings.HasSuffix(path, ".stg") {
		write = g.WriteSTG
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// DOT renders the graph in Graphviz DOT syntax. Node labels carry the task
// name (or τi) with its ⟨c, a, D⟩ triple; edge labels carry message sizes.
// The output is deterministic.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph taskgraph {\n")
	b.WriteString("  rankdir=TB;\n  node [shape=box];\n")
	for _, t := range g.tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", t.ID)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\nc=%d a=%d D=%d\"];\n",
			t.ID, name, t.Exec, t.Arrival(), t.AbsDeadline())
	}
	for _, c := range g.SortedArcs() {
		if c.Size != 0 {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", c.Src, c.Dst, c.Size)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", c.Src, c.Dst)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
