// Command bbfuzz runs the differential testing campaign indefinitely (or
// for -n instances): every solver configuration, and the fleet's frontier
// split with and without duplicate-free generation, is cross-checked
// against the others, the brute-force oracle, and the certified bounds on
// streams of random workloads. Any discrepancy aborts with a reproducer
// seed.
//
// With -residual the campaign instead targets fault recovery: random fault
// scenarios are injected into list schedules and the residual-problem
// construction plus the recovered plan are property-checked (coverage,
// dead processors, channel delivery, non-overlap, deterministic replay).
//
// With -hetero the campaign targets the heterogeneous scenario matrix:
// global and partitioned solves on random speed-factor/affinity platforms
// are cross-validated against their brute-force oracles, and explicit
// unit/universal specs are checked bit-identical to the legacy reference
// kernel.
//
// Usage:
//
//	bbfuzz [-n instances] [-seed base] [-tasks max] [-procs max]
//	       [-budget dur] [-residual] [-hetero] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fuzzcheck"
)

func main() {
	var (
		n        = flag.Int("n", 1000, "instances to check")
		seed     = flag.Int64("seed", time.Now().UnixNano()%1_000_000, "base seed")
		tasks    = flag.Int("tasks", 9, "max tasks per instance")
		procs    = flag.Int("procs", 3, "max processors")
		budget   = flag.Duration("budget", 5*time.Second, "per-solve budget")
		residual = flag.Bool("residual", false, "fuzz fault recovery instead of the solvers")
		hetero   = flag.Bool("hetero", false, "fuzz the heterogeneous/partitioned scenario matrix")
		v        = flag.Bool("v", false, "per-instance progress")
	)
	flag.Parse()
	cfg := fuzzcheck.Config{
		Instances: *n, Seed: *seed, MaxTasks: *tasks, Procs: *procs, Budget: *budget,
	}
	if *v {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	campaign, run := "differential", fuzzcheck.Run
	if *residual {
		campaign, run = "fault-recovery", fuzzcheck.RunResidual
	}
	if *hetero {
		campaign, run = "heterogeneous", fuzzcheck.RunHetero
	}
	fmt.Printf("bbfuzz: %d %s instances from seed %d (tasks<=%d, procs<=%d)\n",
		*n, campaign, *seed, *tasks, *procs)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbfuzz: DISCREPANCY:", err)
		os.Exit(1)
	}
	fmt.Printf("bbfuzz: clean — %d checked, %d skipped (budget)\n", res.Checked, res.Skipped)
}
