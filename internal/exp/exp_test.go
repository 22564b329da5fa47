package exp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// tinyConfig keeps unit-test experiments fast: small workloads, few runs.
func tinyConfig() Config {
	c := Quick()
	c.Runs = 4
	c.Procs = []int{2, 3}
	c.Workload.NMin, c.Workload.NMax = 6, 8
	c.Workload.DepthMin, c.Workload.DepthMax = 3, 5
	c.TimeLimit = 2 * time.Second
	c.Seed = 42
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatalf("Quick invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Procs = nil },
		func(c *Config) { c.Procs = []int{0} },
		func(c *Config) { c.Runs = 0 },
		func(c *Config) { c.Adaptive = true; c.MaxRuns = c.Runs - 1 },
		func(c *Config) { c.TimeLimit = -time.Second },
		func(c *Config) { c.Workload = gen.Params{} },
	}
	for i, mut := range bad {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config #%d accepted", i)
		}
	}
}

func TestFig3aShapeAndPairing(t *testing.T) {
	fig, err := Fig3a(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig3a" || len(fig.Series) != 3 {
		t.Fatalf("unexpected figure shape: %s with %d series", fig.ID, len(fig.Series))
	}
	llb, ok1 := fig.SeriesByName("S=LLB")
	lifo, ok2 := fig.SeriesByName("S=LIFO")
	edf, ok3 := fig.SeriesByName("EDF")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing series")
	}
	for j := range lifo.Points {
		// Exact searches: identical optimal lateness on paired workloads.
		if llb.Points[j].Censored == 0 && lifo.Points[j].Censored == 0 {
			if llb.Points[j].Lateness.Mean() != lifo.Points[j].Lateness.Mean() {
				t.Errorf("x=%v: LLB and LIFO lateness means differ on paired workloads: %v vs %v",
					lifo.Points[j].X, llb.Points[j].Lateness.Mean(), lifo.Points[j].Lateness.Mean())
			}
		}
		// B&B is never worse than EDF on average (paired, exact).
		if lifo.Points[j].Lateness.Mean() > edf.Points[j].Lateness.Mean() {
			t.Errorf("x=%v: optimal lateness mean %v worse than EDF %v",
				lifo.Points[j].X, lifo.Points[j].Lateness.Mean(), edf.Points[j].Lateness.Mean())
		}
		// EDF reference "vertices" are exactly n steps per run.
		if edf.Points[j].Vertices.Max() > float64(tinyConfig().Workload.NMax) {
			t.Errorf("EDF steps exceed n")
		}
	}
}

func TestFig3bLatenessIdentical(t *testing.T) {
	fig, err := Fig3b(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lb0, _ := fig.SeriesByName("L=LB0")
	lb1, _ := fig.SeriesByName("L=LB1")
	for j := range lb0.Points {
		if lb0.Points[j].Censored == 0 && lb1.Points[j].Censored == 0 &&
			lb0.Points[j].Lateness.Mean() != lb1.Points[j].Lateness.Mean() {
			t.Errorf("x=%v: LB0/LB1 latenesses differ — both are exact searches",
				lb0.Points[j].X)
		}
	}
}

func TestFig3cOrdering(t *testing.T) {
	fig, err := Fig3c(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := fig.SeriesByName("BFn BR=0%")
	for _, name := range []string{"B=DF", "B=BF1", "BFn BR=10%"} {
		s, ok := fig.SeriesByName(name)
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		for j := range s.Points {
			// No strategy may beat the exact optimum on paired workloads.
			if s.Points[j].Lateness.Mean() < opt.Points[j].Lateness.Mean()-1e-9 {
				t.Errorf("%s at x=%v: mean lateness %v beats optimal %v",
					name, s.Points[j].X, s.Points[j].Lateness.Mean(), opt.Points[j].Lateness.Mean())
			}
		}
	}
}

func TestDiscussionRunnersProduceSeries(t *testing.T) {
	cfg := tinyConfig()
	for _, id := range []string{"disc-parallelism", "disc-ccr", "disc-upperbound", "disc-memory"} {
		runner, err := ByName(Figures(), id)
		if err != nil {
			t.Fatal(err)
		}
		fig, err := runner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Series) < 2 {
			t.Fatalf("%s: %d series", id, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) == 0 {
				t.Fatalf("%s: empty series %s", id, s.Variant)
			}
			for _, p := range s.Points {
				if p.Runs == 0 {
					t.Fatalf("%s %s x=%v: zero retained runs", id, s.Variant, p.X)
				}
			}
		}
	}
}

func TestDiscussionUpperBoundDirection(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 6
	fig, err := DiscussionUpperBound(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := fig.VertexRatio("LLB U=naive", "LLB U=EDF")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ratios {
		if r < 1 {
			t.Errorf("point %d: naive U searched FEWER vertices than EDF-seeded (ratio %.2f)", i, r)
		}
	}
}

func TestByName(t *testing.T) {
	figs := Figures()
	for _, id := range IDs(figs) {
		if _, err := ByName(figs, id); err != nil {
			t.Errorf("ByName(%q): %v", id, err)
		}
	}
	if _, err := ByName(figs, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAdaptiveStopsEventually(t *testing.T) {
	cfg := tinyConfig()
	cfg.Adaptive = true
	cfg.Runs = 3
	cfg.MaxRuns = 12
	cfg.Procs = []int{2}
	fig, err := Fig3b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Runs+p.Censored > cfg.MaxRuns {
				t.Fatalf("%s: %d runs exceeds MaxRuns %d", s.Variant, p.Runs, cfg.MaxRuns)
			}
			if p.Runs < cfg.Runs-p.Censored {
				t.Fatalf("%s: only %d runs, minimum is %d", s.Variant, p.Runs, cfg.Runs)
			}
		}
	}
}

func TestRenderTableAndCSV(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 2
	cfg.Procs = []int{2}
	fig, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := fig.Table()
	for _, want := range []string{"fig3a", "generated vertices", "max task lateness", "S=LIFO", "EDF"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "figure,variant,x") || !strings.Contains(csv, "fig3a,S=LLB,2") {
		t.Errorf("csv malformed:\n%s", csv)
	}
	lines := strings.Count(csv, "\n")
	if lines != 1+len(fig.Series)*1 {
		t.Errorf("csv has %d lines, want %d", lines, 1+len(fig.Series))
	}
}

func TestVertexRatioErrors(t *testing.T) {
	fig := Figure{ID: "x", Series: []Series{{Variant: "a", Points: []Point{{X: 1}}}}}
	if _, err := fig.VertexRatio("a", "missing"); err == nil {
		t.Error("missing series accepted")
	}
	if _, err := fig.VertexRatio("a", "a"); err == nil {
		t.Error("zero denominator accepted")
	}
}

func TestLogfPlumbing(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 2
	cfg.Procs = []int{2}
	var lines int
	cfg.Logf = func(format string, args ...interface{}) { lines++ }
	if _, err := Fig3b(cfg); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("Logf never called")
	}
}

func TestPairedVertexRatios(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 5
	cfg.Procs = []int{2}
	fig, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := fig.PairedVertexRatios("S=LLB", "S=LIFO", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 5 {
		t.Fatalf("%d ratios, want 5", len(ratios))
	}
	for i, r := range ratios {
		if r <= 0 {
			t.Fatalf("ratio %d non-positive: %v", i, r)
		}
	}
	if _, err := fig.PairedVertexRatios("S=LLB", "missing", 0); err == nil {
		t.Fatal("missing series accepted")
	}
	if _, err := fig.PairedVertexRatios("S=LLB", "S=LIFO", 9); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestPlotSVG(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 3
	fig, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svg := fig.PlotSVG()
	for _, want := range []string{"<svg", "</svg>", "polyline", "generated vertices", "maximum task lateness", "S=LIFO", "EDF"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("plot missing %q", want)
		}
	}
	if fig.PlotSVG() != svg {
		t.Fatal("plot not deterministic")
	}
	// Degenerate figure: no panic, a "no data" marker.
	empty := Figure{ID: "x", Title: "t"}
	if out := empty.PlotSVG(); !strings.Contains(out, "no data") {
		t.Fatalf("empty figure plot: %q", out)
	}
	// XML escaping of series names.
	weird := Figure{ID: "x", Title: "a<b&c", Series: []Series{{Variant: "v<1>", Points: []Point{{X: 1}, {X: 2}}}}}
	if out := weird.PlotSVG(); strings.Contains(out, "v<1>") || !strings.Contains(out, "v&lt;1&gt;") {
		t.Fatal("series name not XML-escaped")
	}
}

func TestDistribution(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 5
	cfg.Procs = []int{2}
	fig, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Distribution(0)
	if !strings.Contains(out, "vertex distribution") || !strings.Contains(out, "S=LIFO") {
		t.Fatalf("distribution output: %q", out)
	}
	if fig.Distribution(9) != "" {
		t.Fatal("out-of-range index not empty")
	}
}
