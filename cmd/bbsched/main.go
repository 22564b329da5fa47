// Command bbsched schedules one task graph on a multiprocessor with the
// parametrized branch-and-bound algorithm and reports the schedule, its
// maximum lateness, and the search statistics.
//
// Usage:
//
//	bbsched [flags] graph.json
//
//	-m int          processors (default 2)
//	-select string  vertex selection rule: lifo, llb, fifo (default lifo)
//	-branch string  branching rule: bfn, df, bf1 (default bfn)
//	-bound string   lower-bound function: lb1, lb0, none (default lb1)
//	-br float       inaccuracy limit in [0,1) (default 0)
//	-timeout dur    search time limit (default 30s; 0 = unlimited)
//	-parallel int   worker goroutines (0 = sequential solve)
//	-ida            cost-bounded iterative deepening (O(n) memory)
//	-edf            run only the greedy EDF baseline
//	-gantt          print a text Gantt chart
//	-svg string     write an SVG Gantt chart to this file
//	-json string    write a JSON schedule trace to this file
//	-improve        post-optimize the schedule with local search
//	-simulate       execute the schedule on the discrete-event platform
//	                simulator (explicit serializing bus) and report
//	-tracedot file  write the explored search tree as Graphviz DOT
//	                (sequential solves only; keep the instance small)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/gantt"
	"repro/internal/improve"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func main() {
	var (
		m        = flag.Int("m", 2, "processors")
		selFlag  = flag.String("select", "lifo", "selection rule: lifo, llb, fifo")
		brFlag   = flag.String("branch", "bfn", "branching rule: bfn, df, bf1")
		lbFlag   = flag.String("bound", "lb1", "lower bound: lb1, lb0, none")
		brLimit  = flag.Float64("br", 0, "inaccuracy limit BR in [0,1)")
		timeout  = flag.Duration("timeout", 30*time.Second, "search time limit (0 = unlimited)")
		parallel = flag.Int("parallel", 0, "worker goroutines (0 = sequential)")
		edfOnly  = flag.Bool("edf", false, "run only the greedy EDF baseline")
		doGantt  = flag.Bool("gantt", false, "print a text Gantt chart")
		svgPath  = flag.String("svg", "", "write SVG Gantt chart to file")
		jsonPath = flag.String("json", "", "write JSON trace to file")
		doImp    = flag.Bool("improve", false, "post-optimize with local search")
		doSim    = flag.Bool("simulate", false, "run the discrete-event platform simulator")
		traceDot = flag.String("tracedot", "", "write the explored search tree as DOT")
		ida      = flag.Bool("ida", false, "use cost-bounded iterative deepening (O(n) memory)")
		dedup    = flag.Bool("dedup", false, "prune duplicate partial schedules via a 64 MiB transposition table (sequential solves only)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bbsched [flags] graph.json")
		flag.PrintDefaults()
		os.Exit(2)
	}

	g, err := taskgraph.LoadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	plat := platform.New(*m)

	var schedule *sched.Schedule
	var rec *trace.Recorder
	if *edfOnly {
		res, err := edf.Schedule(g, plat)
		if err != nil {
			fatal(err)
		}
		schedule = res.Schedule
		fmt.Printf("EDF: Lmax=%d makespan=%d steps=%d\n", res.Lmax, schedule.Makespan(), res.Steps)
	} else {
		params := core.Params{
			BR:        *brLimit,
			Resources: core.ResourceBounds{TimeLimit: *timeout},
			Dedup:     *dedup,
		}
		if err := params.ParseRules(*selFlag, *brFlag, *lbFlag); err != nil {
			fatal(err)
		}
		if *traceDot != "" {
			if *parallel > 0 {
				fatal(fmt.Errorf("-tracedot requires a sequential solve"))
			}
			rec = trace.NewRecorder(200_000)
			params.Observer = rec.Observer()
		}

		var res core.Result
		switch {
		case *parallel > 0:
			res, err = core.SolveParallel(g, plat, core.ParallelParams{Params: params, Workers: *parallel})
		case *ida:
			res, err = core.SolveIDA(g, plat, params)
		default:
			res, err = core.Solve(g, plat, params)
		}
		if err != nil {
			fatal(err)
		}
		if res.Schedule == nil {
			fatal(fmt.Errorf("no feasible solution below the initial upper bound"))
		}
		schedule = res.Schedule
		fmt.Printf("B&B %v\n", params)
		fmt.Printf("  Lmax=%d makespan=%d optimal=%v guarantee=%v\n",
			res.Cost, schedule.Makespan(), res.Optimal, res.Guarantee)
		fmt.Printf("  vertices: generated=%d expanded=%d goals=%d pruned=%d maxAS=%d\n",
			res.Stats.Generated, res.Stats.Expanded, res.Stats.Goals,
			res.Stats.PrunedChildren, res.Stats.MaxActiveSet)
		if *dedup {
			fmt.Printf("  dedup: pruned=%d hits=%d tableBytes=%d\n",
				res.Stats.DedupPruned, res.Stats.TableHits, res.Stats.TableBytesInUse)
		}
		fmt.Printf("  elapsed=%v timedOut=%v\n", res.Stats.Elapsed.Round(time.Microsecond), res.Stats.TimedOut)
	}

	if err := schedule.Check(); err != nil {
		fatal(fmt.Errorf("internal error: produced schedule is invalid: %w", err))
	}
	if *doImp {
		impRes, err := improve.Improve(schedule, improve.Options{Seed: 1, Kicks: 3})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("local search: Lmax %d -> %d (%d moves, %d improvements)\n",
			impRes.Start, impRes.Cost, impRes.Moves, impRes.Improvements)
		schedule = impRes.Schedule
	}
	if *doSim {
		rep, err := sim.Run(schedule)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Summary())
	}
	if *traceDot != "" && rec != nil {
		fmt.Print(rec.Summary())
		if err := os.WriteFile(*traceDot, []byte(rec.DOT()), 0o644); err != nil {
			fatal(err)
		}
	}
	if *doGantt {
		fmt.Print(gantt.Text(schedule, 96))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(gantt.SVG(schedule)), 0o644); err != nil {
			fatal(err)
		}
	}
	if *jsonPath != "" {
		data, err := gantt.JSON(schedule)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bbsched:", err)
	os.Exit(1)
}
