// Package trace records the event stream of a branch-and-bound search
// (core.Params.Observer) and turns it into human-consumable artifacts:
// per-level exploration profiles, an incumbent-improvement timeline, and a
// Graphviz rendering of the explored portion of the search tree. It exists
// for debugging search behaviour and for teaching — the paper's Figure 3
// phenomena (LIFO's dive, LLB's plateau flood) are immediately visible in a
// rendered trace.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// Recorder accumulates search events. Install with Observer(). Safe for
// concurrent emitters (SolveParallel workers, distributed tracing): the
// callback serializes on an internal mutex, so events land in one totally
// ordered slice even when the emitting solver provides no global order.
// The single-goroutine fast path stays allocation-free — an uncontended
// mutex and a fixed counter array, no per-event allocation beyond the
// amortized Events append.
//
// Count and Truncated may be called while a solve is emitting; the
// analysis methods (Profile, Improvements, Summary, DOT) and direct
// Events access must wait until the solve has returned.
type Recorder struct {
	Events []core.Event

	// Cap bounds the number of retained events (0 = unlimited). When the
	// cap is hit, further events still update the counters but are not
	// retained — a full fig3a LLB run can emit tens of millions of events.
	Cap int

	mu     sync.Mutex
	counts [core.NumEventKinds]int64
	other  int64 // future kinds beyond the known range
}

// NewRecorder returns a recorder retaining at most cap events (0 =
// unlimited).
func NewRecorder(cap int) *Recorder {
	return &Recorder{Cap: cap}
}

// Observer returns the callback to install in core.Params.
func (r *Recorder) Observer() core.Observer {
	return func(e core.Event) {
		r.mu.Lock()
		if e.Kind >= 0 && int(e.Kind) < len(r.counts) {
			r.counts[e.Kind]++
		} else {
			r.other++
		}
		if r.Cap == 0 || len(r.Events) < r.Cap {
			r.Events = append(r.Events, e)
		}
		r.mu.Unlock()
	}
}

// Count returns how many events of the kind were observed (including ones
// beyond the retention cap).
func (r *Recorder) Count(kind core.EventKind) int64 {
	if kind < 0 || int(kind) >= len(r.counts) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}

// Truncated reports whether events were dropped by the cap.
func (r *Recorder) Truncated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.other
	for _, c := range r.counts {
		total += c
	}
	return int64(len(r.Events)) < total
}

// LevelProfile returns, per tree level, how many vertices were generated,
// pruned and expanded — the "shape" of the search. Index 0 is the root
// level.
type LevelProfile struct {
	Level     int
	Generated int64
	Pruned    int64
	Expanded  int64
	Goals     int64
}

// Profile computes the per-level exploration profile from the retained
// events.
func (r *Recorder) Profile() []LevelProfile {
	byLevel := map[int]*LevelProfile{}
	get := func(l int32) *LevelProfile {
		p, ok := byLevel[int(l)]
		if !ok {
			p = &LevelProfile{Level: int(l)}
			byLevel[int(l)] = p
		}
		return p
	}
	for _, e := range r.Events {
		switch e.Kind {
		case core.EventGenerate:
			get(e.Level).Generated++
		case core.EventPrune, core.EventDominated, core.EventDrop:
			get(e.Level).Pruned++
		case core.EventExpand:
			get(e.Level).Expanded++
		case core.EventGoal:
			get(e.Level).Goals++
		}
	}
	out := make([]LevelProfile, 0, len(byLevel))
	for _, p := range byLevel {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}

// Improvement is one incumbent update.
type Improvement struct {
	Seq  uint64
	Cost taskgraph.Time
}

// Improvements returns the incumbent timeline in event order.
func (r *Recorder) Improvements() []Improvement {
	var out []Improvement
	for _, e := range r.Events {
		if e.Kind == core.EventIncumbent {
			out = append(out, Improvement{Seq: e.Seq, Cost: e.LB})
		}
	}
	return out
}

// Summary renders the headline counters.
func (r *Recorder) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "search trace: %d events retained", len(r.Events))
	if r.Truncated() {
		b.WriteString(" (truncated)")
	}
	b.WriteString("\n")
	for k := core.EventKind(0); k < core.NumEventKinds; k++ {
		if c := r.Count(k); c > 0 {
			fmt.Fprintf(&b, "  %-10s %d\n", k, c)
		}
	}
	return b.String()
}

// DOT renders the explored search tree from the retained events. Expanded
// vertices are boxes; pruned children are grey; the incumbent-setting goals
// are doubled octagons. Only usable for small searches (the output grows
// linearly with the event count).
func (r *Recorder) DOT() string {
	var b strings.Builder
	b.WriteString("digraph searchtree {\n  rankdir=TB;\n  node [fontsize=9];\n")
	b.WriteString("  v0 [label=\"root\", shape=box];\n")
	for _, e := range r.Events {
		switch e.Kind {
		case core.EventGenerate:
			fmt.Fprintf(&b, "  v%d [label=\"τ%d→p%d\\nlb=%d\", shape=box];\n",
				e.Seq, e.Task, e.Proc, e.LB)
			fmt.Fprintf(&b, "  v%d -> v%d;\n", e.Parent, e.Seq)
		case core.EventPrune, core.EventDominated, core.EventDrop:
			fmt.Fprintf(&b, "  v%d [label=\"τ%d→p%d\\nlb=%d\", shape=box, style=filled, fillcolor=gray85];\n",
				e.Seq, e.Task, e.Proc, e.LB)
			fmt.Fprintf(&b, "  v%d -> v%d [style=dashed];\n", e.Parent, e.Seq)
		case core.EventGoal:
			fmt.Fprintf(&b, "  v%d [label=\"goal τ%d→p%d\\nL=%d\", shape=octagon];\n",
				e.Seq, e.Task, e.Proc, e.LB)
			fmt.Fprintf(&b, "  v%d -> v%d;\n", e.Parent, e.Seq)
		case core.EventIncumbent:
			fmt.Fprintf(&b, "  v%d [shape=doubleoctagon, style=filled, fillcolor=palegreen];\n", e.Seq)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
