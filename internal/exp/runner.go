package exp

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/edf"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/taskgraph"
)

// Point aggregates one variant's observations at one sweep position. The
// JSON encoding is the journal format (see Journal); Sample fields encode
// as raw observation arrays, losslessly.
type Point struct {
	Variant string  `json:"variant"`
	X       float64 `json:"x"` // sweep coordinate (processor count, CCR, …)

	Vertices stats.Sample `json:"vertices"` // generated vertices (EDF: scheduling steps)
	Lateness stats.Sample `json:"lateness"` // maximum task lateness
	MaxAS    stats.Sample `json:"maxas"`    // active-set high-water mark (0 for EDF)

	// Censored counts runs removed because they exceeded the time limit
	// (§5 protocol). Failed counts runs whose solve panicked (isolated,
	// recorded, excluded from the averages). Runs counts the retained ones.
	Censored int `json:"censored"`
	Failed   int `json:"failed,omitempty"`
	Runs     int `json:"runs"`
}

// Series is one variant's curve across the sweep.
type Series struct {
	Variant string
	Points  []Point
}

// Figure is a fully evaluated experiment.
type Figure struct {
	ID     string // e.g. "fig3a"
	Title  string
	XLabel string
	Series []Series

	// Optional label overrides for figures that re-purpose the metric
	// columns (e.g. the fault sweep). Empty means the solver-sweep
	// defaults ("generated vertices", "max task lateness", ...).
	VertexLabel   string
	LatenessLabel string
	ASLabel       string
	RunsLabel     string
}

// sweepPoint describes one x-position of a sweep: how to generate its
// workloads and which platform to schedule on.
type sweepPoint struct {
	x        float64
	workload gen.Params
	laxity   float64
	procs    int
}

// runSweep evaluates all variants over the sweep positions under the
// config's run protocol and returns one Series per variant.
func runSweep(cfg Config, variants []Variant, pts []sweepPoint) ([]Series, error) {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Name
	}
	return sweep(cfg, names, variants, pts, func(pt sweepPoint, posSeed int64, gg *gen.Generator, row []Point) error {
		plat := platform.New(pt.procs)
		for run := 1; run <= cfg.maxRuns(); run++ {
			g := gg.Graph()
			if err := deadline.Assign(g, pt.laxity, cfg.Slicing); err != nil {
				return err
			}
			for i, v := range variants {
				if err := runVariant(cfg, v, g, plat, &row[i], posSeed, run); err != nil {
					return err
				}
			}
			if run >= cfg.Runs && (!cfg.Adaptive || converged(cfg, row)) {
				break
			}
		}
		return nil
	})
}

// sweep is the position loop of every journaled figure. It returns one
// Series per name, one Point per position. A position journaled under
// positionKey(cfg, keys, pt, j) is restored verbatim. Any other position
// j gets its own seed, cfg.Seed + j·7919, so it can be evaluated (or
// re-evaluated) independently and matches a journaled copy exactly: fill
// evaluates it from that seed and a generator of pt.workload seeded with
// it into row, one Point per name with Variant and X set, which is then
// journaled.
func sweep(cfg Config, names []string, keys []Variant, pts []sweepPoint,
	fill func(pt sweepPoint, posSeed int64, gg *gen.Generator, row []Point) error) ([]Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	series := make([]Series, len(names))
	for i, name := range names {
		series[i] = Series{Variant: name, Points: make([]Point, len(pts))}
	}
	for j, pt := range pts {
		var key string
		if cfg.Journal != nil {
			key = positionKey(cfg, keys, pt, j)
			if saved, ok := cfg.Journal.Lookup(key); ok && len(saved) == len(names) {
				for i := range series {
					series[i].Points[j] = saved[i]
				}
				cfg.logf("exp: x=%v restored from journal", pt.x)
				continue
			}
		}
		row := make([]Point, len(names))
		for i, name := range names {
			row[i] = Point{Variant: name, X: pt.x}
		}
		posSeed := cfg.Seed + int64(j)*7919
		if err := fill(pt, posSeed, gen.New(pt.workload, posSeed), row); err != nil {
			return nil, err
		}
		if cfg.Journal != nil {
			if err := cfg.Journal.Record(key, row); err != nil {
				return nil, err
			}
		}
		for i, p := range row {
			series[i].Points[j] = p
			cfg.logf("exp: %s x=%v: %d runs (%d censored, %d failed), mean vertices %.0f, mean lateness %.1f",
				p.Variant, pt.x, p.Runs, p.Censored, p.Failed, p.Vertices.Mean(), p.Lateness.Mean())
		}
	}
	return series, nil
}

func (c Config) maxRuns() int {
	if c.Adaptive {
		return c.MaxRuns
	}
	return c.Runs
}

// converged applies the §5 stop rule across every variant of one
// position.
func converged(cfg Config, row []Point) bool {
	for i := range row {
		p := &row[i]
		if !p.Vertices.WithinRelativeError(cfg.VerticesConf, cfg.VerticesErr, 1.0) {
			return false
		}
		if !p.Lateness.WithinRelativeError(cfg.LatenessConf, cfg.LatenessErr, cfg.LatenessEps) {
			return false
		}
	}
	return true
}

// runVariant evaluates one variant on one instance. A panicking solve is
// isolated: the run is recorded as failed (with enough context to replay
// it — the position seed and run index pin the exact graph) and the sweep
// carries on with the next instance instead of aborting the experiment.
func runVariant(cfg Config, v Variant, g *taskgraph.Graph, plat platform.Platform, p *Point, posSeed int64, run int) (err error) {
	defer func() {
		// core recovers its own worker panics into *core.PanicError; this
		// catches anything outside that net (EDF reference, bookkeeping).
		if r := recover(); r != nil {
			p.Failed++
			cfg.logf("exp: variant %q PANICKED on posSeed=%d run=%d: %v (recorded as failed)",
				v.Name, posSeed, run, r)
			err = nil
		}
	}()

	if v.EDF {
		res, err := edf.Schedule(g, plat)
		if err != nil {
			return err
		}
		p.Vertices.AddInt(int64(res.Steps))
		p.Lateness.AddInt(int64(res.Lmax))
		p.MaxAS.AddInt(0)
		p.Runs++
		return nil
	}

	params := v.Params
	params.Resources.TimeLimit = cfg.TimeLimit
	res, err := core.Solve(g, plat, params)
	if err != nil {
		var pe *core.PanicError
		if errors.As(err, &pe) {
			p.Failed++
			cfg.logf("exp: variant %q solve panicked on posSeed=%d run=%d: %v (recorded as failed)",
				v.Name, posSeed, run, pe.Value)
			return nil
		}
		return err
	}
	if res.Stats.TimedOut {
		p.Censored++
		return nil
	}
	if res.Schedule == nil {
		return fmt.Errorf("exp: variant %q found no schedule (U too tight?)", v.Name)
	}
	p.Vertices.AddInt(res.Stats.Generated)
	p.Lateness.AddInt(int64(res.Cost))
	p.MaxAS.AddInt(int64(res.Stats.MaxActiveSet))
	p.Runs++
	return nil
}

// procSweep builds the Figure 3 sweep: x = processor count, workload fixed.
func procSweep(cfg Config) []sweepPoint {
	pts := make([]sweepPoint, len(cfg.Procs))
	for i, m := range cfg.Procs {
		pts[i] = sweepPoint{
			x:        float64(m),
			workload: cfg.Workload,
			laxity:   cfg.Workload.Laxity,
			procs:    m,
		}
	}
	return pts
}
