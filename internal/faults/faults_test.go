package faults

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

func TestScenarioQueries(t *testing.T) {
	sc := &Scenario{Faults: []Fault{
		{Kind: ProcFailure, Proc: 2, At: 40},
		{Kind: ProcFailure, Proc: 0, At: 15},
		{Kind: ExecOverrun, Task: 3, Extra: 5},
		{Kind: ExecOverrun, Task: 3, Extra: 2},
		{Kind: ExecOverrun, Task: 7, Extra: 1},
	}}
	if err := sc.Validate(10, 4); err != nil {
		t.Fatal(err)
	}
	if at, ok := sc.DeadAt(2); !ok || at != 40 {
		t.Fatalf("DeadAt(2) = %d,%v", at, ok)
	}
	if _, ok := sc.DeadAt(1); ok {
		t.Fatal("processor 1 should be alive")
	}
	if got := sc.DeadProcs(); !reflect.DeepEqual(got, []platform.Proc{0, 2}) {
		t.Fatalf("DeadProcs = %v", got)
	}
	if at, ok := sc.LastFailure(); !ok || at != 40 {
		t.Fatalf("LastFailure = %d,%v", at, ok)
	}
	if got := sc.Overrun(3); got != 7 {
		t.Fatalf("Overrun(3) = %d, want 7 (overruns accumulate)", got)
	}
	if got := sc.Overrun(0); got != 0 {
		t.Fatalf("Overrun(0) = %d", got)
	}
}

func TestNilScenarioIsFaultFree(t *testing.T) {
	var sc *Scenario
	if err := sc.Validate(5, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.DeadAt(0); ok {
		t.Fatal("nil scenario has dead processors")
	}
	if _, ok := sc.LastFailure(); ok {
		t.Fatal("nil scenario has a failure")
	}
	if sc.Overrun(0) != 0 || sc.DeadProcs() != nil {
		t.Fatal("nil scenario injects faults")
	}
	if sc.String() != "fault-free" {
		t.Fatalf("String = %q", sc.String())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Scenario{
		{Faults: []Fault{{Kind: ProcFailure, Proc: 4, At: 0}}},                                      // proc out of range
		{Faults: []Fault{{Kind: ProcFailure, Proc: 0, At: -1}}},                                     // negative instant
		{Faults: []Fault{{Kind: ProcFailure, Proc: 1, At: 3}, {Kind: ProcFailure, Proc: 1, At: 9}}}, // double failure
		{Faults: []Fault{{Kind: ExecOverrun, Task: 10, Extra: 1}}},                                  // task out of range
		{Faults: []Fault{{Kind: ExecOverrun, Task: 0, Extra: 0}}},                                   // zero overrun
		{Faults: []Fault{{Kind: Kind(99)}}},                                                         // unknown kind
	}
	for i, sc := range cases {
		sc := sc
		if err := sc.Validate(10, 4); err == nil {
			t.Errorf("case %d: Validate accepted %v", i, sc.Faults)
		}
	}
}

func TestModelDeterminism(t *testing.T) {
	g := gen.New(gen.Defaults(), 11).Graph()
	plat := platform.New(4)

	draw := func(seed int64) []Fault {
		m := NewModel(seed)
		out := []Fault{m.ProcFailure(plat, 100)}
		return append(out, m.Overruns(g, 0.3, 0.5)...)
	}
	a, b := draw(42), draw(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	c := draw(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestModelDrawsInRange(t *testing.T) {
	g := gen.New(gen.Defaults(), 12).Graph()
	plat := platform.New(3)
	m := NewModel(7)
	for i := 0; i < 200; i++ {
		f := m.ProcFailure(plat, 50)
		if f.Proc < 0 || int(f.Proc) >= plat.M || f.At < 0 || f.At >= 50 {
			t.Fatalf("draw %d out of range: %v", i, f)
		}
	}
	if f := m.ProcFailure(plat, 0); f.At != 0 {
		t.Fatalf("zero horizon should fail at t=0, got %v", f)
	}
	for _, f := range m.Overruns(g, 1.0, 0.5) {
		max := taskgraph.Time(float64(g.Task(f.Task).Exec) * 0.5)
		if max < 1 {
			max = 1
		}
		if f.Extra < 1 || f.Extra > max {
			t.Fatalf("overrun %v outside [1,%d]", f, max)
		}
	}
	if got := m.Overruns(g, 0, 0.5); got != nil {
		t.Fatalf("prob=0 still drew overruns: %v", got)
	}
	sc := &Scenario{Faults: m.Overruns(g, 1.0, 0.5)}
	if err := sc.Validate(g.NumTasks(), plat.M); err != nil {
		t.Fatal(err)
	}
}
