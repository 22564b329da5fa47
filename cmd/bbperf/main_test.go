package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// TestMain lets the smoke test's re-executed children run as bbperf
// children instead of as tests.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg, os.Stdout))
	}
	os.Exit(m.Run())
}

func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailRefusesThinPercentile(t *testing.T) {
	if _, err := tail(ascending(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	got, err := tail(ascending(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", got, err)
	}
	if _, err := tail(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{ascending(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

// solvedInstance returns the first drawn serve-cold op and its answer
// encoded as the server would send it.
func solvedInstance(t *testing.T) (instance, server.SolveResponse) {
	t.Helper()
	c, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("serve-cold")
	if err != nil {
		t.Fatal(err)
	}
	ops, err := w.plan(c, 1997)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := materialize(ops[:1])
	if err != nil {
		t.Fatal(err)
	}
	in := insts[0]
	o, err := in.kind.solve(context.Background(), in.g, in.p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutcome(in, o); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	return in, responseOf(o)
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	in, resp := solvedInstance(t)
	encode := func(r server.SolveResponse) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkSolveBody(encode(resp), in.g, in.p, in.want); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	wrong := resp
	wrong.Lmax++
	if err := checkSolveBody(encode(wrong), in.g, in.p, in.want); err == nil {
		t.Error("a wrong Lmax was accepted")
	}
	if err := checkSolveBody(encode(wrong), in.g, in.p, wrong.Lmax); err == nil {
		t.Error("an Lmax the schedule does not have was accepted")
	}

	// The same answer checked against a relabeled copy of the graph is a
	// schedule that was not remapped to the requester's numbering.
	n := in.g.NumTasks()
	perm := make([]taskgraph.TaskID, n)
	for i := range perm {
		perm[i] = taskgraph.TaskID(n - 1 - i)
	}
	relabeled, err := taskgraph.Relabel(in.g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolveBody(encode(resp), relabeled, in.p, in.want); err == nil {
		t.Error("a schedule in the wrong task numbering was accepted")
	}
	swapped := resp
	swapped.Schedule = append(swapped.Schedule[:0:0], resp.Schedule...)
	swapped.Schedule[0].Task, swapped.Schedule[1].Task = swapped.Schedule[1].Task, swapped.Schedule[0].Task
	if err := checkSolveBody(encode(swapped), in.g, in.p, in.want); err == nil {
		t.Error("a schedule with two tasks swapped was accepted")
	}

	o, err := in.kind.solve(context.Background(), in.g, in.p)
	if err != nil {
		t.Fatal(err)
	}
	o.cost++
	if err := checkOutcome(in, o); err == nil {
		t.Error("an in-process answer with a wrong Lmax was accepted")
	}
}

func TestQuickSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-quick", "-trace-out", t.TempDir()}, &stdout, &stderr)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("quick run took %s, want < 10s", elapsed)
	}
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := res.Metrics[w.name+"/"+d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s/%s = %+v, present %v", w.name, d.name, m, ok)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		code []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Errorf("%d metrics declared, code has %d", len(c.decl), len(c.code))
			continue
		}
		for i, d := range c.decl {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("metric %d: declared %s [%s], code has %s [%s]", i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestPackageIsClean runs the repository's analyzers (errcheck, goleak,
// lockorder and the rest) over this package, as the root module's
// TestRepositoryIsClean does.
func TestPackageIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its imports from source")
	}
	mod, err := check.FindModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := check.ExpandPatterns(mod, wd, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := check.LoadProgram(mod, paths, check.ProgramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prog.Run(check.Analyzers(), check.ProgramAnalyzers()) {
		t.Errorf("%s", d)
	}
}
