package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/edf"
	"repro/internal/gen"
	"repro/internal/hetero"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// The catalog (testdata/expected.json) lists, for every generator family,
// a contiguous range of instance seeds and, per solve kind, each
// instance's expected answer (computed with the reference kernel, or for
// partitioned solves re-evaluated by edf.SchedulePartitioned), its search
// effort, and its solve time on the machine that built the catalog.
// Workloads draw their instances from it by stratified sampling on that
// time, so the seed changes which instances run but not the shape of the
// work, and the inputs of a seed never depend on the code under test.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// family is one generator configuration and platform.
type family struct {
	name  string
	base  int64 // instance i is generated from seed base+i
	count int
	gen   gen.Params
	plat  func(n int) platform.Platform
	kinds []kind
}

// kind is one way of solving a family instance.
type kind struct {
	name        string
	params      core.Params
	ida         bool  // core.SolveIDA instead of core.SolveContext
	partitioned bool  // hetero.SolvePartitioned instead of the global kernel
	cap         int64 // the catalog keeps instances whose effort is at most cap
}

// exact reports whether the kind must prove optimality.
func (k kind) exact() bool { return k.partitioned || k.params.Branching.Exact() }

// outcome is the result of one solve, global or partitioned.
type outcome struct {
	cost    taskgraph.Time
	optimal bool
	sched   *sched.Schedule
	assign  []platform.Proc // partitioned solves only
	stats   core.Stats
	het     hetero.Stats
}

// effort is the search-size count the catalog caps: generated vertices of
// the global kernel, visited assignment vertices of the partitioned search.
func (k kind) effort(o outcome) int64 {
	if k.partitioned {
		return o.het.Visited
	}
	return o.stats.Generated
}

// layer names the public function an op of this kind calls.
func (k kind) layer() string {
	switch {
	case k.partitioned:
		return "hetero.SolvePartitioned"
	case k.ida:
		return "core.SolveIDA"
	}
	return "core.Solve"
}

func (k kind) solve(ctx context.Context, g *taskgraph.Graph, p platform.Platform) (outcome, error) {
	return k.solveWith(ctx, g, p, k.params, hetero.Options{})
}

func (k kind) solveWith(ctx context.Context, g *taskgraph.Graph, p platform.Platform, params core.Params, opt hetero.Options) (outcome, error) {
	if k.partitioned {
		r, err := hetero.SolvePartitioned(ctx, g, p, opt)
		return outcome{cost: r.Cost, optimal: r.Optimal, sched: r.Schedule, assign: r.Assign, het: r.Stats}, err
	}
	var r core.Result
	var err error
	if k.ida {
		r, err = core.SolveIDA(g, p, params)
	} else {
		r, err = core.SolveContext(ctx, g, p, params)
	}
	return outcome{cost: r.Cost, optimal: r.Optimal, sched: r.Schedule, stats: r.Stats}, err
}

// reference solves with the reference kernel (global kinds) or re-checks
// the partitioned answer by re-simulation; ok is false when the instance's
// effort exceeds the kind's cap.
func (k kind) reference(g *taskgraph.Graph, p platform.Platform) (o outcome, ok bool, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	params := k.params
	params.ReferenceKernel = true
	var seen int64
	if !k.ida && !k.partitioned {
		params.Observer = func(e core.Event) {
			if e.Kind != core.EventExpand {
				if seen++; seen > k.cap {
					cancel()
				}
			}
		}
	}
	o, err = k.solveWith(ctx, g, p, params, hetero.Options{NodeLimit: k.cap})
	if err != nil || ctx.Err() != nil || k.effort(o) > k.cap || (k.partitioned && !o.optimal) {
		return o, false, err
	}
	if k.exact() && !o.optimal {
		return o, false, fmt.Errorf("%s: exhausted search did not prove optimality", k.name)
	}
	if k.partitioned {
		re, err := edf.SchedulePartitioned(g, p, o.assign)
		if err != nil {
			return o, false, err
		}
		if re.Lmax != o.cost {
			return o, false, fmt.Errorf("%s: re-simulated Lmax %d != reported %d", k.name, re.Lmax, o.cost)
		}
	}
	return o, true, nil
}

func homogeneous(m int) func(int) platform.Platform {
	return func(int) platform.Platform { return platform.New(m) }
}

// heteroPlatform is the bbload -hetero platform at four processors: speed
// factors 1,2,1,2 and every fourth task barred from processor 0.
func heteroPlatform(n int) platform.Platform {
	p := platform.New(4)
	p.Speed = []float64{1, 2, 1, 2}
	p.Affinity = make([]uint64, n)
	for id := range p.Affinity {
		p.Affinity[id] = 0b1111
		if id%4 == 3 {
			p.Affinity[id] = 0b1110
		}
	}
	return p
}

// wideParams draws 13-task graphs over 3–4 levels: wide ready sets whose
// transposition duplicates dominate the search.
func wideParams() gen.Params {
	p := gen.Defaults()
	p.NMin, p.NMax = 13, 13
	p.DepthMin, p.DepthMax = 3, 4
	return p
}

var families = []*family{
	{name: "paper", base: 1997, count: 1200, gen: gen.Defaults(), plat: homogeneous(3), kinds: []kind{
		{name: "lifo", cap: 250_000},
		{name: "llb", params: core.Params{Selection: core.SelectLLB}, cap: 250_000},
		{name: "ida-df", params: core.Params{Branching: core.BranchDF}, ida: true, cap: 250_000},
	}},
	{name: "wide", base: 101_997, count: 600, gen: wideParams(), plat: homogeneous(3), kinds: []kind{
		{name: "lifo-dedup", params: core.Params{Dedup: true}, cap: 60_000},
	}},
	{name: "hetero", base: 201_997, count: 1500, gen: gen.Defaults(), plat: heteroPlatform, kinds: []kind{
		{name: "global", cap: 50_000},
		{name: "partitioned", partitioned: true, cap: 20_000},
	}},
	{name: "m2", base: 301_997, count: 3000, gen: gen.Defaults(), plat: homogeneous(2), kinds: []kind{
		{name: "lifo", cap: 20_000},
	}},
}

func familyByName(name string) (*family, error) {
	for _, f := range families {
		if f.name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("unknown family %q", name)
}

func (f *family) kind(name string) (kind, error) {
	for _, k := range f.kinds {
		if k.name == name {
			return k, nil
		}
	}
	return kind{}, fmt.Errorf("family %s has no kind %q", f.name, name)
}

// instance regenerates catalog instance i with the §4.2 deadlines.
func (f *family) instance(i int) (*taskgraph.Graph, platform.Platform, error) {
	g := gen.New(f.gen, f.base+int64(i)).Graph()
	if err := deadline.Assign(g, f.gen.Laxity, deadline.EqualSlack); err != nil {
		return nil, platform.Platform{}, err
	}
	return g, f.plat(g.NumTasks()), nil
}

// digest is the FNV-1a hash of the graph's codec bytes; the catalog
// stores it so a changed generator fails loudly instead of checking
// answers against different graphs.
func digest(g *taskgraph.Graph) (uint32, error) {
	b, err := json.Marshal(g)
	if err != nil {
		return 0, err
	}
	h := fnv.New32a()
	_, _ = h.Write(b) // hash writes never fail
	return h.Sum32(), nil
}

type catalog struct {
	Families []catalogFamily `json:"families"`
}

type catalogFamily struct {
	Name   string        `json:"name"`
	Base   int64         `json:"base_seed"`
	Digest []uint32      `json:"digest"`
	Kinds  []catalogKind `json:"kinds"`
}

// catalogKind holds one kind's columns, indexed by instance. Effort -1
// marks an instance beyond the kind's cap.
type catalogKind struct {
	Name   string  `json:"name"`
	Cost   []int64 `json:"cost"`
	Effort []int64 `json:"effort"`
	US     []int64 `json:"us"`
}

// loadCatalog parses the embedded catalog and checks it still describes
// the families defined in code.
func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(expectedJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	for _, f := range families {
		cf, err := c.family(f.name)
		if err != nil {
			return nil, err
		}
		if cf.Base != f.base || len(cf.Digest) != f.count || len(cf.Kinds) != len(f.kinds) {
			return nil, fmt.Errorf("catalog: family %s is stale (rerun with -write-expected)", f.name)
		}
		for i, k := range f.kinds {
			ck := cf.Kinds[i]
			if ck.Name != k.name || len(ck.Cost) != f.count || len(ck.Effort) != f.count || len(ck.US) != f.count {
				return nil, fmt.Errorf("catalog: %s/%s is stale (rerun with -write-expected)", f.name, k.name)
			}
		}
	}
	return &c, nil
}

func (c *catalog) family(name string) (*catalogFamily, error) {
	for i := range c.Families {
		if c.Families[i].Name == name {
			return &c.Families[i], nil
		}
	}
	return nil, fmt.Errorf("catalog: no family %q (rerun with -write-expected)", name)
}

func (cf *catalogFamily) kind(name string) *catalogKind {
	for i := range cf.Kinds {
		if cf.Kinds[i].Name == name {
			return &cf.Kinds[i]
		}
	}
	return nil
}

// stratified draws n instances of one kind: the eligible entries (within
// maxEffort and maxUS when those are set), ordered by catalog solve time,
// are cut into n equal strata and one instance is drawn from each.
func (ck *catalogKind) stratified(n int, maxEffort, maxUS int64, rng *rand.Rand) ([]int, error) {
	var eligible []int
	for i, e := range ck.Effort {
		if e < 0 || (maxEffort > 0 && e > maxEffort) || (maxUS > 0 && ck.US[i] > maxUS) {
			continue
		}
		eligible = append(eligible, i)
	}
	if len(eligible) < n {
		return nil, fmt.Errorf("catalog kind %s holds %d eligible instances, %d needed", ck.Name, len(eligible), n)
	}
	sort.SliceStable(eligible, func(a, b int) bool { return ck.US[eligible[a]] < ck.US[eligible[b]] })
	out := make([]int, n)
	for s := range out {
		lo, hi := s*len(eligible)/n, (s+1)*len(eligible)/n
		out[s] = eligible[lo+rng.Intn(hi-lo)]
	}
	return out, nil
}

// buildCatalog computes every family's answers with the reference kernel,
// two instances at a time, then times the optimized path of each kept
// entry sequentially (best of three) for the stratification key.
func buildCatalog(log io.Writer) (*catalog, error) {
	var c catalog
	for _, f := range families {
		cf := catalogFamily{Name: f.name, Base: f.base, Digest: make([]uint32, f.count)}
		for _, k := range f.kinds {
			cf.Kinds = append(cf.Kinds, catalogKind{
				Name: k.name, Cost: make([]int64, f.count), Effort: make([]int64, f.count), US: make([]int64, f.count),
			})
		}
		start := time.Now()
		errs := make([]error, f.count)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < f.count; i = int(next.Add(1)) - 1 {
					errs[i] = f.referenceEntry(&cf, i)
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s instance %d: %w", f.name, i, err)
			}
		}
		for i := 0; i < f.count; i++ {
			g, p, err := f.instance(i)
			if err != nil {
				return nil, err
			}
			for ki, k := range f.kinds {
				ck := &cf.Kinds[ki]
				if ck.Effort[i] < 0 {
					continue
				}
				best := time.Duration(1 << 62)
				for r := 0; r < 3; r++ {
					t0 := time.Now()
					o, err := k.solve(context.Background(), g, p)
					d := time.Since(t0)
					if err != nil || int64(o.cost) != ck.Cost[i] {
						return nil, fmt.Errorf("%s/%s instance %d: optimized path disagrees with the reference (%v)", f.name, k.name, i, err)
					}
					best = min(best, d)
				}
				ck.US[i] = max(1, best.Microseconds())
			}
		}
		fmt.Fprintf(log, "bbperf: catalog %s: %d instances in %s\n", f.name, f.count, time.Since(start).Round(time.Second))
		c.Families = append(c.Families, cf)
	}
	return &c, nil
}

func (f *family) referenceEntry(cf *catalogFamily, i int) error {
	g, p, err := f.instance(i)
	if err != nil {
		return err
	}
	if cf.Digest[i], err = digest(g); err != nil {
		return err
	}
	for ki, k := range f.kinds {
		o, ok, err := k.reference(g, p)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		ck := &cf.Kinds[ki]
		ck.Effort[i] = -1
		if ok {
			ck.Cost[i], ck.Effort[i] = int64(o.cost), k.effort(o)
		}
	}
	return nil
}

// writeCatalog writes the catalog with one column per line, so a rebuild
// diffs column by column.
func writeCatalog(path string, c *catalog) error {
	var b strings.Builder
	b.WriteString("{\"families\": [\n")
	for fi, f := range c.Families {
		digests, err := json.Marshal(f.Digest)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "  {\"name\": %q, \"base_seed\": %d,\n   \"digest\": %s,\n   \"kinds\": [\n", f.Name, f.Base, digests)
		for ki, k := range f.Kinds {
			cost, err1 := json.Marshal(k.Cost)
			effort, err2 := json.Marshal(k.Effort)
			us, err3 := json.Marshal(k.US)
			if err := errors.Join(err1, err2, err3); err != nil {
				return err
			}
			sep := ","
			if ki == len(f.Kinds)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "    {\"name\": %q,\n     \"cost\": %s,\n     \"effort\": %s,\n     \"us\": %s}%s\n",
				k.Name, cost, effort, us, sep)
		}
		b.WriteString("  ]}")
		if fi < len(c.Families)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
