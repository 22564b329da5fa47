// Command bbexp runs the paper's experiments and prints each figure as
// aligned tables (and optionally CSV).
//
// Usage:
//
//	bbexp [flags] [experiment ...]
//
// With no arguments, every experiment runs in presentation order:
// fig3a, fig3b, fig3c, fig3c-scaled, fig3a-tie, disc-parallelism,
// disc-ccr, disc-upperbound, disc-memory, fault-sweep, partition-sweep
// (internal/exp), then the serving figures defined in this command:
// dist-sweep, grid-sweep, serve-sweep.
//
//	-quick          reduced protocol (fixed few runs, for smoke tests)
//	-runs int       override the (minimum) number of runs per point
//	-maxruns int    override the adaptive run cap
//	-timeout dur    per-run search budget (default 10s)
//	-seed int       experiment seed (default 1997)
//	-procs string   comma-separated processor sweep (default "2,3,4")
//	-csv            print CSV blocks after each table
//	-journal path   crash-safe JSONL journal of completed sweep positions
//	-resume         resume from the journal instead of truncating it
//	-paired A/B     per-instance paired vertex ratios of series A and B
//	-plot dir       write an SVG plot per figure into dir
//	-dist           per-variant vertex-count distributions (log-decade histograms)
//	-v              progress logging to stderr
//
// A run killed mid-sweep loses nothing: restart it with the same flags
// plus -resume and the journaled positions are served from disk, yielding
// byte-identical tables and CSV to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
)

// experiments is every figure bbexp runs, in presentation order: the
// harness's own, then the serving figures, which live here because only
// cmd binaries may import the serving daemon.
var experiments = append(exp.Figures(),
	exp.Experiment{ID: "dist-sweep", Run: DistSweep},
	exp.Experiment{ID: "grid-sweep", Run: GridSweep},
	exp.Experiment{ID: "serve-sweep", Run: ServeSweep},
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced protocol")
		runs    = flag.Int("runs", 0, "override runs per point")
		maxRuns = flag.Int("maxruns", 0, "override adaptive run cap")
		timeout = flag.Duration("timeout", 10*time.Second, "per-run search budget")
		seed    = flag.Int64("seed", 1997, "experiment seed")
		procs   = flag.String("procs", "2,3,4", "processor sweep")
		csv     = flag.Bool("csv", false, "print CSV blocks")
		journal = flag.String("journal", "", "crash-safe journal file (JSONL)")
		resume  = flag.Bool("resume", false, "resume from the journal")
		paired  = flag.String("paired", "", "print per-instance paired ratio stats for two series, e.g. \"S=LLB/S=LIFO\"")
		plotDir = flag.String("plot", "", "write an SVG plot per figure into this directory")
		dist    = flag.Bool("dist", false, "print per-variant vertex-count distributions (log-decade histograms)")
		verbose = flag.Bool("v", false, "progress logging")
	)
	flag.Parse()

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	cfg.TimeLimit = *timeout
	cfg.Seed = *seed
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *maxRuns > 0 {
		cfg.MaxRuns = *maxRuns
	}
	if cfg.MaxRuns < cfg.Runs {
		cfg.MaxRuns = cfg.Runs
	}
	if *verbose {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var err error
	cfg.Procs, err = parseProcs(*procs)
	if err != nil {
		fatal(err)
	}
	if *resume && *journal == "" {
		fatal(fmt.Errorf("-resume needs -journal"))
	}
	if *journal != "" {
		j, err := exp.OpenJournal(*journal, *resume)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = j.Close() }()
		cfg.Journal = j
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.IDs(experiments)
	}
	for _, id := range ids {
		runner, err := exp.ByName(experiments, id)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		fig, err := runner(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(fig.Table())
		fmt.Printf("\n  (completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *csv {
			fmt.Println(fig.CSV())
		}
		if *paired != "" {
			printPaired(fig, *paired)
		}
		if *dist {
			for idx := 0; len(fig.Series) > 0 && idx < len(fig.Series[0].Points); idx++ {
				fmt.Println(fig.Distribution(idx))
			}
		}
		if *plotDir != "" {
			path := *plotDir + "/" + fig.ID + ".svg"
			if err := os.WriteFile(path, []byte(fig.PlotSVG()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
}

// printPaired reports per-instance paired ratio statistics for "A/B":
// the fraction of contested instances (ratio != 1), and the geometric mean
// of the ratios over all and over contested instances only.
func printPaired(fig exp.Figure, spec string) {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 {
		fmt.Fprintf(os.Stderr, "bbexp: bad -paired spec %q (want \"A/B\")\n", spec)
		return
	}
	if len(fig.Series) == 0 {
		return
	}
	for idx := range fig.Series[0].Points {
		ratios, err := fig.PairedVertexRatios(parts[0], parts[1], idx)
		if err != nil {
			fmt.Printf("  paired %s x=%g: %v\n", spec, fig.Series[0].Points[idx].X, err)
			continue
		}
		var logAll, logCon float64
		var contested int
		for _, r := range ratios {
			logAll += math.Log(r)
			if r > 1.0001 || r < 0.9999 {
				contested++
				logCon += math.Log(r)
			}
		}
		gAll := math.Exp(logAll / float64(len(ratios)))
		gCon := 1.0
		if contested > 0 {
			gCon = math.Exp(logCon / float64(contested))
		}
		fmt.Printf("  paired %s x=%g: %d/%d contested, geo-mean ratio %.2f (all) %.2f (contested)\n",
			spec, fig.Series[0].Points[idx].X, contested, len(ratios), gAll, gCon)
	}
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, m)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bbexp:", err)
	os.Exit(1)
}
