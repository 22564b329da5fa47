// Command bbperf is the repository's benchmark: five workloads, each run
// in its own re-executed child process, every answer checked, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
//
// # Running it
//
// From the repository root:
//
//	bash cmd/bbperf/bench.sh                          # all five workloads
//	bash cmd/bbperf/bench.sh --workload serve-warm --seed 7 --seconds 10 --trace 0
//	bash cmd/bbperf/bench.sh --workload paper-exact --trace 1
//	bash cmd/bbperf/bench.sh --repeat 5               # medians and spreads vs BENCHMARK.json
//	bash cmd/bbperf/bench.sh -write-expected          # rebuild testdata/expected.json
//
// bench.sh builds this module (it has its own go.mod, so the root
// module's go build ./... and go test ./... do not see it) with its build
// cache under .bench_build/. Inside cmd/bbperf, go run . and go test .
// work as usual.
//
// Each workload prints its end-to-end metrics by name and unit, then the
// last line of standard output is one JSON object {correct, attempted,
// failed, metrics}. With --trace 1 the metrics are the per-layer ones.
// The exit status is non-zero when any answer was wrong.
//
// # End-to-end metrics
//
//   - ops_per_s: ops per second of op time, the median over the run's
//     passes (a pass runs every op of the workload once).
//   - latency_p50_ms, latency_p99_ms: per-op latency over all ops of the
//     run. A percentile is refused unless at least ten samples lie beyond
//     it; with fewer ops the highest percentile that has ten is reported,
//     with a warning.
//   - cpu_ms_per_op: the child's user+sys CPU per op (getrusage), the
//     median over passes. It is the metric least sensitive to host steal.
//   - max_rss_mb: the child's peak resident set (ru_maxrss).
//   - setup_s: the median of seven set-ups in the child, the first counted
//     from process start. The catalog check (oracle_s) runs in the parent
//     and is not part of it.
//
// error_rate (failed/attempted) is printed but is not a BENCHMARK.json
// metric: it is 0 on a correct program, and the JSON line carries the
// failed and attempted counts themselves.
//
// # What an op is, and when it fails
//
// An op is one exact solve in the in-process workloads and one HTTP
// request in the serving ones. It fails when the call returns an error,
// the response status is not 200 (a 429 is never retried), optimal=false
// on an exact solve, the schedule fails sched.Schedule.Check in the
// requester's numbering, its Lmax differs from the reported one, or the
// reported Lmax differs from the catalog's answer. The first answer of
// each op is checked after the timed phase, so checking costs no time
// while it runs; later passes must return byte-identical answers.
//
// # Inputs
//
// testdata/expected.json is a catalog of generated instances per family
// with, per solve kind, the answer (from the reference kernel, partitioned
// answers re-simulated by edf.SchedulePartitioned), the search effort and
// the solve time on the machine that built it. Instances whose effort
// exceeds the kind's cap are excluded. A workload draws its ops from the
// catalog by stratified sampling on that time with a rand source seeded
// by --seed: one instance per equal-size stratum. Exact search cost is
// violently instance-sensitive, so drawing graphs straight from the
// generator would let the seed, not the program, decide the numbers; the
// strata keep the shape of the work fixed while the seed picks the
// graphs, and since the catalog is committed, no change to the solver can
// change which graphs a seed selects. Before timing, the parent
// regenerates every drawn graph and checks it against the catalog digest
// (oracle_s). -write-expected rebuilds the catalog (about two minutes).
//
// A run repeats whole passes over its ops until --seconds have passed.
// All load comes from this one process: the in-process workloads run one
// solve at a time, the serving ones one closed-loop client against an
// in-process server with two solve workers on a loopback listener. The
// benchmark is tuned for two cores; a second client made repeated runs
// scatter two to three times wider there.
//
// # Workloads
//
//   - paper-exact: 128 stratified §4.1 graphs (m=3) per driver under LIFO
//     (the zero Params: BFn, LB1), LLB, and SolveIDA with DF branching,
//     384 solves per pass; efforts up to 250k generated vertices. It is the
//     paper's workload and configurations; the core loop, sched and LB1 do
//     the work. IDA-DF is approximate, so its answer is checked against
//     the reference kernel's DF answer, not for optimality. It should move
//     with the kernel (node rate, search size) and not with the serving
//     layers.
//   - wide-dedup: 64 wide graphs (13 tasks, 3–4 levels, m=3) with Dedup
//     at the default 64 MiB table budget, efforts up to 20k generated
//     vertices so that a run holds the thousand ops latency_p99_ms needs.
//     Signatures and transpose do the work here and none in paper-exact;
//     every solve pays the table's construction (a several-millisecond
//     floor), so latency_p50_ms follows transpose.new_ms.
//   - hetero-mix: 512 graphs each for a global solve and a
//     hetero.SolvePartitioned on the bbload -hetero platform at m=4 (speed
//     factors 1,2,1,2; every fourth task barred from processor 0). It
//     covers the speed/affinity bound path and edf.PartitionedLmax. Most
//     solves take microseconds, so per-solve set-up dominates, unlike in
//     paper-exact.
//   - serve-cold: 1000 distinct m=2 graphs, one /v1/solve each, on a fresh
//     in-process server per pass: the write path (decode, canonicalize,
//     WFQ admission, solve, cache insert, encode), all misses.
//   - serve-warm: a pool of 60 graphs (20 m=2, 20 heterogeneous global, 20
//     partitioned) solved during set-up, then 2048 seeded relabelings of
//     them (tasks, and processors on the heterogeneous platform): the read
//     path, every request a hit that must be re-canonicalized and
//     remapped. The kernel is bypassed, so core metrics should not move
//     it.
//
// Out of scope: SolveParallel, whose search order is nondeterministic on
// two shared cores, and the loopback fleet, which would measure the 20 ms
// lease poll and the scheduler rather than the program. Add each when an
// optimisation of that layer needs it.
//
// # Per-layer metrics (--trace 1)
//
// The traced run alternates traced and untraced passes; trace.overhead_pct
// compares their op rates. Spans (name, start, end, parent, op id) are
// kept in memory around the benchmark's own calls into each layer and
// written to <-trace-out>/<workload>-seed<N>.jsonl at the end; a layer's
// time is the interquartile mean over its spans of self time per call.
// Counts come from the answers of the timed ops (identical on every run of
// a seed). After the timed phase the child replays each layer from outside
// on the workload's own graphs:
//
//   - core: generated, expanded (per solve), vertices_per_s (node rate),
//     pruned_ratio ((pruned children + pruned active + dedup pruned) /
//     generated), max_active_set, dedup_pruned. Node rate and search size
//     are reported apart: a pruning win moves generated, a speed-up moves
//     vertices_per_s. Both move ops_per_s on paper-exact and wide-dedup;
//     max_active_set moves max_rss_mb on paper-exact.
//   - sched: place_undo_ns, est_ns, sig_place_undo_ns (signature on),
//     new_state_us, from a depth-capped replay of each graph's (ready task,
//     processor) children. They move vertices_per_s, then ops_per_s on
//     paper-exact (with signatures: wide-dedup); new_state_us moves
//     latency_p50_ms on hetero-mix and serve-cold.
//   - transpose: new_ms (moves wide-dedup latency_p50_ms), probe_ns and
//     store_ns on the replay's signature stream, hit_rate (table hits per
//     generated vertex), bytes_high_water (moves wide-dedup max_rss_mb).
//   - hetero/edf: visited, evaluated, prune_ratio, partitioned_us
//     (edf.SchedulePartitioned) move hetero-mix; canonicalize_us moves
//     serve-warm.
//   - taskgraph/server: decode_us, canonical_us, encode_us (canonical
//     codec bytes), encode_us (response), remap_us, replayed in handler
//     order, and http_overhead_us (client request time minus the replayed
//     stages); cache_hit_ratio (serve-warm reads 1, serve-cold 0) and
//     solves per pass. They move latency_p50_ms on serve-warm (read path)
//     and serve-cold (write path).
//   - grid: wfq_admit_ns (uncontended Acquire+release), utilization and
//     rejected move serve-cold.
//   - runtime: alloc_bytes_per_op and gc_cycles (per 1000 ops) move
//     cpu_ms_per_op and max_rss_mb everywhere.
//   - host.steal_frac, host.attempts, bench.oracle_s describe the run.
//
// # Host noise
//
// The child reads the host's steal time from /proc/stat around each timed
// phase. When steal exceeds 2% of the CPU time, the timed phase is run
// again, up to three attempts while the attempts fit in 2.2 × --seconds
// (with the default run length that allows one rerun, which keeps a run
// within its time budget on a host where every run sees steal), and the
// attempt with the least steal is reported.
//
// -repeat k runs every selected workload k times with seeds seed..seed+k-1
// and prints each metric's median and IQR/median (Python's
// statistics.quantiles), flagging any spread beyond its BENCHMARK.json
// bound.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.generated", "count"},
	{"core.expanded", "count"},
	{"core.vertices_per_s", "1/s"},
	{"core.pruned_ratio", "ratio"},
	{"core.max_active_set", "count"},
	{"core.dedup_pruned", "count"},
	{"sched.place_undo_ns", "ns"},
	{"sched.est_ns", "ns"},
	{"sched.sig_place_undo_ns", "ns"},
	{"sched.new_state_us", "us"},
	{"transpose.new_ms", "ms"},
	{"transpose.probe_ns", "ns"},
	{"transpose.store_ns", "ns"},
	{"transpose.hit_rate", "ratio"},
	{"transpose.bytes_high_water", "bytes"},
	{"hetero.visited", "count"},
	{"hetero.evaluated", "count"},
	{"hetero.prune_ratio", "ratio"},
	{"hetero.canonicalize_us", "us"},
	{"edf.partitioned_us", "us"},
	{"taskgraph.canonical_us", "us"},
	{"taskgraph.encode_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.remap_us", "us"},
	{"server.http_overhead_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.solves", "count"},
	{"grid.wfq_admit_ns", "ns"},
	{"grid.utilization", "ratio"},
	{"grid.rejected", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count/kop"},
	{"trace.overhead_pct", "%"},
	{"host.steal_frac", "ratio"},
	{"host.attempts", "count"},
	{"bench.oracle_s", "s"},
}

const (
	childEnv    = "BBPERF_CHILD" // set on re-executed children: their config as JSON
	stealLimit  = 0.02
	maxAttempts = 3
)

func main() {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	quick         bool
	repeat        int
	writeExpected bool
	expectedOut   string
	traceOut      string
	benchJSON     string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1997, "seed that draws the instances")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: short timed phase, fewer set-ups and replays")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload k times on seeds seed..seed+k-1 and report medians and spreads")
	fs.BoolVar(&o.writeExpected, "write-expected", false, "rebuild the catalog of expected answers")
	fs.StringVar(&o.expectedOut, "expected-out", "cmd/bbperf/testdata/expected.json", "where -write-expected writes the catalog")
	fs.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory for the traced run's spans")
	fs.StringVar(&o.benchJSON, "bench-json", "BENCHMARK.json", "bounds read by -repeat")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || o.repeat < 1 {
		fmt.Fprintln(stderr, "bbperf: want -seconds > 0, -trace 0|1, -repeat >= 1 and no arguments")
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if o.quick && !secondsSet {
		o.seconds = 0.3
	}
	if o.writeExpected {
		c, err := buildCatalog(stderr)
		if err == nil {
			err = writeCatalog(o.expectedOut, c)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bbperf:", err)
			return 1
		}
		return 0
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(o.workload); err != nil {
		fmt.Fprintln(stderr, "bbperf:", err)
		return 2
	}
	if o.repeat > 1 {
		return repeat(o, names, stdout, stderr)
	}

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	var results []*result
	for _, name := range names {
		res, err := runWorkload(o, name, o.seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bbperf:", err)
			return 1
		}
		res.print(stdout, defs)
		results = append(results, res)
	}
	return printJSON(stdout, stderr, results, defs)
}

// result is one workload run as the parent reports it.
type result struct {
	workload string
	seed     int64
	child    childResult
	metrics  map[string]float64
	oracleS  float64
}

func (r *result) correct() bool { return r.child.Failed == 0 }

// runWorkload checks the drawn graphs against the catalog, then runs the
// workload in a re-executed child and adds what only the parent sees.
func runWorkload(o options, name string, seed int64, stderr io.Writer) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	c, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	ops, err := w.plan(c, seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := oracle(ops); err != nil {
		return nil, err
	}
	res := &result{workload: name, seed: seed, oracleS: time.Since(t0).Seconds()}

	cfg, err := json.Marshal(childConfig{Workload: name, Seed: seed, Seconds: o.seconds, Trace: o.trace == 1, Quick: o.quick, TraceOut: o.traceOut})
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(cfg))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", name, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res.child); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", name, err)
	}
	res.metrics = res.child.Metrics
	if o.trace == 1 {
		res.metrics["host.steal_frac"] = res.child.Steal[res.child.Kept]
		res.metrics["host.attempts"] = float64(len(res.child.Steal))
		res.metrics["bench.oracle_s"] = res.oracleS
	} else if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.metrics["max_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // ru_maxrss is in KiB on Linux
	}
	for _, p := range res.child.Problems {
		fmt.Fprintf(stderr, "bbperf: %s: FAILED %s\n", name, p)
	}
	return res, nil
}

func (r *result) print(w io.Writer, defs []metricDef) {
	ch := r.child
	fmt.Fprintf(w, "%s (seed %d): %d ops, %d failed, error_rate %.4g, attempts %d (steal %s), oracle_s %.3f\n",
		r.workload, r.seed, ch.Attempted, ch.Failed, ratio(float64(ch.Failed), float64(ch.Attempted)),
		len(ch.Steal), fmtSteal(ch.Steal), r.oracleS)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
}

func fmtSteal(steal []float64) string {
	parts := make([]string, len(steal))
	for i, s := range steal {
		parts[i] = fmt.Sprintf("%.1f%%", 100*s)
	}
	return strings.Join(parts, ",")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printJSON writes the result line: metric names as declared when one
// workload ran, "<workload>/<metric>" when several did.
func printJSON(stdout, stderr io.Writer, results []*result, defs []metricDef) int {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.child.Attempted
		out.Failed += r.child.Failed
		for _, d := range defs {
			key := d.name
			if len(results) > 1 {
				key = r.workload + "/" + d.name
			}
			out.Metrics[key] = jsonMetric{Value: r.metrics[d.name], Unit: d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bbperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// repeat runs each workload k times on consecutive seeds and reports every
// metric's median and spread against the BENCHMARK.json bounds.
func repeat(o options, names []string, stdout, stderr io.Writer) int {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	bounds, err := readBounds(o.benchJSON)
	if err != nil {
		fmt.Fprintf(stderr, "bbperf: %v (spreads are printed without bounds)\n", err)
	}
	status := 0
	summary := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		vals := map[string][]float64{}
		for k := 0; k < o.repeat; k++ {
			res, err := runWorkload(o, name, o.seed+int64(k), stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bbperf:", err)
				return 1
			}
			res.print(stderr, defs)
			summary.Correct = summary.Correct && res.correct()
			summary.Attempted += res.child.Attempted
			summary.Failed += res.child.Failed
			for _, d := range defs {
				vals[d.name] = append(vals[d.name], res.metrics[d.name])
			}
		}
		fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", name, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
		for _, d := range defs {
			q1, med, q3 := quartiles(vals[d.name])
			spread := ratio(q3-q1, med)
			note := ""
			if b, ok := bounds[d.name]; ok {
				if spread > b && d.name != "setup_s" {
					note = fmt.Sprintf("  OUTSIDE bound %.3f", b)
					status = 1
				} else {
					note = fmt.Sprintf("  bound %.3f", b)
				}
			}
			fmt.Fprintf(stdout, "  %-28s median %14.6g %-6s IQR/median %.4f%s\n", d.name, med, d.unit, spread, note)
			summary.Metrics[name+"/"+d.name] = jsonMetric{Value: med, Unit: d.unit}
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "bbperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !summary.Correct {
		return 1
	}
	return status
}

// readBounds reads the end-to-end bounds declared in BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range bench.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// ---- statistics ---------------------------------------------------------

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default exclusive method), which the bounds are checked with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// errTooFewSamples refuses a percentile with fewer than ten samples beyond.
var errTooFewSamples = errors.New("fewer than ten samples beyond the percentile")

// tail returns the nearest-rank q-quantile of an ascending slice, refusing
// it unless at least ten samples lie beyond it.
func tail(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 || n-idx-1 < 10 {
		return 0, errTooFewSamples
	}
	return sorted[idx], nil
}

// ---- the child ----------------------------------------------------------

type childConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	TraceOut string  `json:"trace_out"`
}

type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Metrics   map[string]float64 `json:"metrics"`
	Steal     []float64          `json:"steal"` // per timed attempt
	Kept      int                `json:"kept"`  // the attempt the metrics describe
}

func childMain(cfgJSON string, stdout io.Writer) int {
	start := time.Now()
	var cfg childConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bbperf child:", err)
		return 1
	}
	res, err := runChild(cfg, start)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbperf child %s: %v\n", cfg.Workload, err)
		return 1
	}
	return 0
}

// attempt is one timed phase.
type attempt struct {
	rec                   *recorder
	wall                  time.Duration // the whole phase
	rates, cpuPerOp       []float64     // per pass: ops per second of op time, CPU ms per op
	tracedTime, plainTime time.Duration
	tracedOps, plainOps   int
	steal                 float64
	allocBytes, gcCycles  float64
}

func runChild(cfg childConfig, start time.Time) (*childResult, error) {
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	c, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	ops, err := w.plan(c, cfg.Seed)
	if err != nil {
		return nil, err
	}
	setups := 7
	if cfg.Quick {
		setups = 2
	}
	var r runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		nr, err := setup(w, ops, cfg.Seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if r != nil {
			r.close()
		}
		r = nr
	}
	defer r.close()

	seconds := time.Duration(cfg.Seconds * float64(time.Second))
	var attempts []*attempt
	var used time.Duration
	for {
		a := measure(r, seconds, cfg.Trace, start)
		attempts = append(attempts, a)
		used += a.wall
		if a.steal <= stealLimit || len(attempts) == maxAttempts || used+a.wall > seconds*11/5 {
			break
		}
	}
	res := &childResult{Metrics: map[string]float64{}}
	for i, a := range attempts {
		res.Steal = append(res.Steal, a.steal)
		res.Attempted += a.rec.ops
		res.Failed += a.rec.failed
		res.Problems = append(res.Problems, a.rec.problems...)
		if a.steal < attempts[res.Kept].steal {
			res.Kept = i
		}
	}
	failed, problems := r.validate()
	res.Failed += failed
	res.Problems = append(res.Problems, problems...)

	a := attempts[res.Kept]
	ops64 := float64(a.rec.ops)
	if !cfg.Trace {
		lat := a.rec.latMS
		sort.Float64s(lat)
		p99, err := tail(lat, 0.99)
		if err != nil {
			idx := max(len(lat)-11, 0)
			p99 = lat[idx]
			fmt.Fprintf(os.Stderr, "bbperf: %s: latency_p99_ms refused (%d ops); reporting p%.2f\n",
				cfg.Workload, len(lat), 100*float64(idx+1)/float64(len(lat)))
		}
		sort.Float64s(setupS)
		sort.Float64s(a.rates)
		sort.Float64s(a.cpuPerOp)
		res.Metrics["ops_per_s"] = median(a.rates)
		res.Metrics["latency_p50_ms"] = median(lat)
		res.Metrics["latency_p99_ms"] = p99
		res.Metrics["cpu_ms_per_op"] = median(a.cpuPerOp)
		res.Metrics["setup_s"] = median(setupS)
		return res, nil
	}
	m, err := layerMetrics(r, a.rec, cfg.Quick)
	if err != nil {
		return nil, err
	}
	m["runtime.alloc_bytes_per_op"] = a.allocBytes / ops64
	m["runtime.gc_cycles"] = a.gcCycles / ops64 * 1000
	if a.tracedOps > 0 && a.plainOps > 0 {
		traced := float64(a.tracedOps) / a.tracedTime.Seconds()
		plain := float64(a.plainOps) / a.plainTime.Seconds()
		m["trace.overhead_pct"] = 100 * (plain/traced - 1)
	}
	res.Metrics = m
	if err := os.MkdirAll(cfg.TraceOut, 0o755); err != nil {
		return nil, err
	}
	return res, a.rec.tr.write(filepath.Join(cfg.TraceOut, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
}

// measure runs whole passes until the timed seconds have passed; traced
// runs trace every other pass.
func measure(r runner, seconds time.Duration, trace bool, base time.Time) *attempt {
	runtime.GC()
	a := &attempt{rec: &recorder{tr: tracer{base: base}}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steal0, total0 := cpuStat()
	start := time.Now()
	for pass := 0; time.Since(start) < seconds || pass == 0; pass++ {
		traced := trace && pass%2 == 0
		n := a.rec.ops
		cpu0 := cpuTime()
		d := r.pass(a.rec, traced)
		ops := float64(a.rec.ops - n)
		a.rates = append(a.rates, ops/d.Seconds())
		a.cpuPerOp = append(a.cpuPerOp, float64((cpuTime()-cpu0).Nanoseconds())/1e6/ops)
		if traced {
			a.tracedTime += d
			a.tracedOps += a.rec.ops - n
		} else {
			a.plainTime += d
			a.plainOps += a.rec.ops - n
		}
	}
	a.wall = time.Since(start)
	steal1, total1 := cpuStat()
	a.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	runtime.ReadMemStats(&ms1)
	a.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	a.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	return a
}

// cpuStat reads the host's aggregate steal and total CPU ticks from
// /proc/stat; both are zero where that file does not exist.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is this process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
