package hetero

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

func TestValidateSpec(t *testing.T) {
	cases := []struct {
		name string
		p    platform.Platform
		n    int
		code string // "" = valid
	}{
		{"homogeneous", platform.New(3), 4, ""},
		{"speeds", platform.Platform{M: 2, CommDelay: 1, Speed: []float64{0.5, 2}}, 4, ""},
		{"affinity", platform.Platform{M: 2, CommDelay: 1, Affinity: []uint64{1, 2, 3, 3}}, 4, ""},
		{"zero procs", platform.Platform{M: 0}, 4, "proc_count"},
		{"too many procs", platform.Platform{M: 128}, 4, "proc_count"},
		{"affinity beyond 64 procs", platform.Platform{M: 65, Affinity: make([]uint64, 4)}, 4, "proc_count"},
		{"speed count", platform.Platform{M: 2, Speed: []float64{1}}, 4, "speed_count"},
		{"zero speed", platform.Platform{M: 2, Speed: []float64{1, 0}}, 4, "speed_factor"},
		{"negative speed", platform.Platform{M: 2, Speed: []float64{-1, 1}}, 4, "speed_factor"},
		{"nan speed", platform.Platform{M: 2, Speed: []float64{nan(), 1}}, 4, "speed_factor"},
		{"huge speed", platform.Platform{M: 2, Speed: []float64{1, 1 << 21}}, 4, "speed_factor"},
		{"affinity count", platform.Platform{M: 2, Affinity: []uint64{1}}, 4, "affinity_count"},
		{"empty mask", platform.Platform{M: 2, Affinity: []uint64{1, 0, 3, 3}}, 4, "affinity_empty"},
		{"mask out of range", platform.Platform{M: 2, Affinity: []uint64{1, 4, 3, 3}}, 4, "affinity_range"},
	}
	for _, tc := range cases {
		err := ValidateSpec(tc.p, tc.n)
		if tc.code == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		se, ok := err.(*SpecError)
		if !ok {
			t.Errorf("%s: want *SpecError %q, got %v", tc.name, tc.code, err)
			continue
		}
		if se.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%v)", tc.name, se.Code, tc.code, se)
		}
		if se.Field == "" || se.Detail == "" {
			t.Errorf("%s: empty field/detail in %+v", tc.name, se)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func identityInv(n int) []taskgraph.TaskID {
	inv := make([]taskgraph.TaskID, n)
	for i := range inv {
		inv[i] = taskgraph.TaskID(i)
	}
	return inv
}

// Homogeneous-universal specs — nil tables, explicit unit speeds, explicit
// universal masks, and any mix — must all canonicalize to the nil-table
// legacy platform and hash to exactly the legacy "m=<M>" key, so their
// cache identity is continuous with keys written before heterogeneity
// existed.
func TestCanonicalizeLegacyKeyContinuity(t *testing.T) {
	n := 5
	inv := identityInv(n)
	specs := []platform.Platform{
		platform.New(3),
		{M: 3, CommDelay: 1, Speed: []float64{1, 1, 1}},
		{M: 3, CommDelay: 1, Affinity: []uint64{7, 7, 7, 7, 7}},
		{M: 3, CommDelay: 1, Speed: []float64{1, 1, 1}, Affinity: []uint64{7, 7, 7, 7, 7}},
	}
	for i, p := range specs {
		canon, invProc, key := Canonicalize(p, inv)
		if key != "m=3" {
			t.Errorf("spec %d: key %q, want legacy \"m=3\"", i, key)
		}
		if canon.Speed != nil || canon.Affinity != nil {
			t.Errorf("spec %d: canonical platform kept hetero tables", i)
		}
		if invProc != nil {
			t.Errorf("spec %d: non-nil invProc for a homogeneous spec", i)
		}
		if canon.M != p.M || canon.CommDelay != p.CommDelay {
			t.Errorf("spec %d: canonical platform %+v lost M/CommDelay", i, canon)
		}
	}
}

// Two specs that differ only by a processor permutation (speed factors and
// affinity bit positions permuted together) must share one canonical key,
// and invProc must map canonical processor indices back to each requester's
// own numbering.
func TestCanonicalizeProcPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, m := 6, 4
	inv := identityInv(n)
	for trial := 0; trial < 200; trial++ {
		base := randomHeteroPlatform(rng, n, m)
		_, _, baseKey := Canonicalize(base, inv)

		perm := rng.Perm(m)
		permuted := platform.Platform{M: m, CommDelay: base.CommDelay}
		if base.Speed != nil {
			permuted.Speed = make([]float64, m)
			for q := 0; q < m; q++ {
				permuted.Speed[perm[q]] = base.Speed[q]
			}
		}
		if base.Affinity != nil {
			permuted.Affinity = make([]uint64, n)
			for id := 0; id < n; id++ {
				var mask uint64
				for q := 0; q < m; q++ {
					mask |= (base.Affinity[id] >> uint(q) & 1) << uint(perm[q])
				}
				permuted.Affinity[id] = mask
			}
		}
		canon, invProc, key := Canonicalize(permuted, inv)
		if key != baseKey {
			t.Fatalf("trial %d: permuted spec hashed to %q, base to %q", trial, key, baseKey)
		}
		// invProc must translate canonical indices back to the permuted
		// spec's numbering: speeds and affinity columns must agree.
		for q := 0; q < m; q++ {
			orig := platform.Proc(q)
			if invProc != nil {
				orig = invProc[q]
			}
			cs, os := 1.0, 1.0
			if canon.Speed != nil {
				cs = canon.Speed[q]
			}
			if permuted.Speed != nil {
				os = permuted.Speed[orig]
			}
			if cs != os {
				t.Fatalf("trial %d: canonical proc %d speed %g != requester proc %d speed %g",
					trial, q, cs, orig, os)
			}
			for id := 0; id < n; id++ {
				if canon.Allows(taskgraph.TaskID(id), platform.Proc(q)) !=
					permuted.Allows(taskgraph.TaskID(id), orig) {
					t.Fatalf("trial %d: affinity column mismatch at canonical proc %d / requester proc %d",
						trial, q, orig)
				}
			}
		}
	}
}

// Two requests whose graphs canonicalize to the same numbering must hash
// their platforms identically no matter how the requester numbered its
// tasks: the affinity table rides through inv.
func TestCanonicalizeTaskRenumberInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, m := 7, 3
	// base affinity in CANONICAL task order.
	for trial := 0; trial < 100; trial++ {
		baseAff := make([]uint64, n)
		for i := range baseAff {
			baseAff[i] = 1 + uint64(rng.Intn(1<<m-1))
		}
		var keys []string
		for v := 0; v < 3; v++ {
			perm := rng.Perm(n) // canonical t lives at requester index perm[t]
			inv := make([]taskgraph.TaskID, n)
			aff := make([]uint64, n)
			for tt := 0; tt < n; tt++ {
				inv[tt] = taskgraph.TaskID(perm[tt])
				aff[perm[tt]] = baseAff[tt]
			}
			p := platform.Platform{M: m, CommDelay: 1, Affinity: aff}
			_, _, key := Canonicalize(p, inv)
			keys = append(keys, key)
		}
		if keys[0] != keys[1] || keys[1] != keys[2] {
			t.Fatalf("trial %d: renumbered requests hashed differently: %q %q %q",
				trial, keys[0], keys[1], keys[2])
		}
	}
}

// randomHeteroPlatform draws a platform with a speed menu and random
// non-empty affinity masks; roughly a third of draws omit each table.
func randomHeteroPlatform(rng *rand.Rand, n, m int) platform.Platform {
	p := platform.Platform{M: m, CommDelay: 1}
	menu := []float64{0.5, 1, 2, 3}
	if rng.Intn(3) > 0 {
		p.Speed = make([]float64, m)
		for q := range p.Speed {
			p.Speed[q] = menu[rng.Intn(len(menu))]
		}
	}
	if rng.Intn(3) > 0 {
		p.Affinity = make([]uint64, n)
		for id := range p.Affinity {
			p.Affinity[id] = 1 + uint64(rng.Intn(1<<m-1))
		}
	}
	return p
}

func smallInstance(t *testing.T, seed int64) *taskgraph.Graph {
	t.Helper()
	gp := gen.Defaults()
	gp.NMin, gp.NMax = 5, 7
	gp.DepthMin, gp.DepthMax = 2, 4
	gp.CCR = float64(seed%3) / 2.0
	g := gen.New(gp, seed).Graph()
	laxity := 0.9 + float64(seed%4)*0.2
	if err := deadline.Assign(g, laxity, deadline.EqualSlack); err != nil {
		t.Fatal(err)
	}
	return g
}

// The partitioned branch-and-bound must find exactly the optimum that
// exhaustive assignment enumeration finds, on both homogeneous and
// heterogeneous platforms.
func TestSolvePartitionedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for seed := int64(0); seed < 30; seed++ {
		g := smallInstance(t, seed)
		m := 2 + int(seed%2)
		p := randomHeteroPlatform(rng, g.NumTasks(), m)
		if seed%5 == 0 {
			p = platform.New(m)
		}
		got, err := SolvePartitioned(nil, g, p, Options{})
		if err != nil {
			t.Fatalf("seed %d: SolvePartitioned: %v", seed, err)
		}
		want, err := BruteForcePartitioned(g, p)
		if err != nil {
			t.Fatalf("seed %d: BruteForcePartitioned: %v", seed, err)
		}
		if !got.Optimal {
			t.Fatalf("seed %d: unbounded search not optimal (%+v)", seed, got.Stats)
		}
		if got.Cost != want.Cost {
			t.Fatalf("seed %d: B&B cost %d, brute-force cost %d (platform %v)",
				seed, got.Cost, want.Cost, p)
		}
		if got.Lower > got.Cost {
			t.Fatalf("seed %d: root bound %d above optimum %d", seed, got.Lower, got.Cost)
		}
		if err := got.Schedule.Check(); err != nil {
			t.Fatalf("seed %d: invalid partitioned schedule: %v", seed, err)
		}
		for id, q := range got.Assign {
			if got.Schedule.Proc(taskgraph.TaskID(id)) != q {
				t.Fatalf("seed %d: schedule placed task %d on %d, assignment says %d",
					seed, id, got.Schedule.Proc(taskgraph.TaskID(id)), q)
			}
		}
	}
}

// Every partitioned schedule is a valid global schedule, so the global
// optimum can never exceed the partitioned optimum.
func TestPartitionedNeverBeatsGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for seed := int64(0); seed < 15; seed++ {
		g := smallInstance(t, seed)
		p := randomHeteroPlatform(rng, g.NumTasks(), 2)
		part, err := SolvePartitioned(nil, g, p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		glob, err := core.Solve(g, p, core.Params{})
		if err != nil {
			t.Fatalf("seed %d: global solve: %v", seed, err)
		}
		if !glob.Optimal {
			t.Fatalf("seed %d: global solve not optimal", seed)
		}
		if glob.Cost > part.Cost {
			t.Fatalf("seed %d: global optimum %d WORSE than partitioned optimum %d",
				seed, glob.Cost, part.Cost)
		}
	}
}

// The global solver's heterogeneous generalization must still be exact:
// its cost matches exhaustive (order × placement) enumeration.
func TestGlobalHeteroMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for seed := int64(0); seed < 15; seed++ {
		g := smallInstance(t, seed)
		p := randomHeteroPlatform(rng, g.NumTasks(), 2)
		got, err := core.Solve(g, p, core.Params{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := bruteforce.Solve(g, p)
		if err != nil {
			t.Fatalf("seed %d: bruteforce: %v", seed, err)
		}
		if !got.Optimal || got.Cost != want.Cost {
			t.Fatalf("seed %d: solver cost %d (optimal=%v), brute-force %d on %v",
				seed, got.Cost, got.Optimal, want.Cost, p)
		}
	}
}

// Explicit unit speed factors and universal affinity masks must leave the
// optimized solver on its legacy code paths: identical cost AND identical
// search statistics to the nil-table platform.
func TestUnitSpecIdenticalToLegacy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := smallInstance(t, seed)
		m := 2 + int(seed%2)
		legacy, err := core.Solve(g, platform.New(m), core.Params{})
		if err != nil {
			t.Fatal(err)
		}
		unit := platform.Platform{
			M: m, CommDelay: 1,
			Speed:    make([]float64, m),
			Affinity: make([]uint64, g.NumTasks()),
		}
		universe := uint64(1)<<uint(m) - 1
		for q := range unit.Speed {
			unit.Speed[q] = 1
		}
		for id := range unit.Affinity {
			unit.Affinity[id] = universe
		}
		got, err := core.Solve(g, unit, core.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != legacy.Cost ||
			got.Stats.Generated != legacy.Stats.Generated ||
			got.Stats.Expanded != legacy.Stats.Expanded ||
			got.Stats.PrunedChildren != legacy.Stats.PrunedChildren ||
			got.Stats.Goals != legacy.Stats.Goals {
			t.Fatalf("seed %d: unit spec diverged from legacy: cost %d/%d gen %d/%d exp %d/%d",
				seed, got.Cost, legacy.Cost,
				got.Stats.Generated, legacy.Stats.Generated,
				got.Stats.Expanded, legacy.Stats.Expanded)
		}
	}
}

// Node limits and cancellation exit through the anytime contract: the
// best incumbent, Optimal=false. The instance needs 545 visits, so every
// limit below binds, though none reaches 1024, where the clock and the
// context are polled.
func TestSolvePartitionedAnytime(t *testing.T) {
	g := gen.New(gen.Defaults(), 7000).Graph()
	p := benchPlatform(g.NumTasks())
	full := checkNodeLimits(t, "bench", g, p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolvePartitioned(ctx, g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal || res.Schedule == nil || res.Cost < full.Cost {
		t.Errorf("canceled context: optimal=%v cost %d (optimum %d) after %d visits", res.Optimal, res.Cost, full.Cost, res.Stats.Visited)
	}
}

// checkNodeLimits solves g on p unbounded, then under node limits of 1,
// 100 and one below the unbounded visit count: each must stop with the
// anytime contract's flags, within one visit of its limit, at a cost no
// better than the optimum. It returns the unbounded result.
func checkNodeLimits(t *testing.T, name string, g *taskgraph.Graph, p platform.Platform) Result {
	t.Helper()
	full, err := SolvePartitioned(nil, g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Optimal || full.Stats.Visited <= 100 {
		t.Fatalf("%s: unbounded search: optimal=%v after %d visits; the limits below must bind", name, full.Optimal, full.Stats.Visited)
	}
	for _, limit := range []int64{1, 100, full.Stats.Visited - 1} {
		res, err := SolvePartitioned(nil, g, p, Options{NodeLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimal || !res.Stats.TimedOut {
			t.Errorf("%s NodeLimit %d: optimal=%v timedOut=%v after %d visits", name, limit, res.Optimal, res.Stats.TimedOut, res.Stats.Visited)
		}
		if res.Stats.Visited > limit+1 {
			t.Errorf("%s NodeLimit %d: %d visits", name, limit, res.Stats.Visited)
		}
		if res.Schedule == nil || res.Cost < full.Cost {
			t.Errorf("%s NodeLimit %d: cost %d beats the optimum %d (schedule %v)", name, limit, res.Cost, full.Cost, res.Schedule != nil)
		}
	}
	return full
}

// On platforms with interchangeable processors the symmetry rule skips the
// empty twins of every tried processor. The optimum must still be brute
// force's, node limits must still bind, and the rule must actually skip:
// the same search on a copy whose speeds differ by 1e-7, which leaves
// every execution time unchanged (ExecCost rounds up) but puts each
// processor in a class of its own, finds the same cost and assignment
// from more visits.
func TestSolvePartitionedSymmetry(t *testing.T) {
	platforms := []struct {
		name string
		plat func(n int) platform.Platform
	}{
		{"speeds 1,1,2,2", func(int) platform.Platform {
			return platform.Platform{M: 4, CommDelay: 1, Speed: []float64{1, 1, 2, 2}}
		}},
		{"bench", benchPlatform},
	}
	for _, pc := range platforms {
		var visited, unbroken int64
		for seed := int64(0); seed < 20; seed++ {
			g := smallInstance(t, seed)
			p := pc.plat(g.NumTasks())
			got, err := SolvePartitioned(nil, g, p, Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", pc.name, seed, err)
			}
			want, err := BruteForcePartitioned(g, p)
			if err != nil {
				t.Fatalf("%s seed %d: brute force: %v", pc.name, seed, err)
			}
			if !got.Optimal || got.Cost != want.Cost {
				t.Fatalf("%s seed %d: B&B cost %d (optimal=%v), brute-force cost %d", pc.name, seed, got.Cost, got.Optimal, want.Cost)
			}
			if err := got.Schedule.Check(); err != nil {
				t.Fatalf("%s seed %d: invalid partitioned schedule: %v", pc.name, seed, err)
			}

			broken := p
			broken.Speed = slices.Clone(p.Speed)
			for q := range broken.Speed {
				broken.Speed[q] += float64(q) * 1e-7
			}
			if slices.Max(broken.Classes()) != broken.M-1 {
				t.Fatalf("%s: perturbed speeds still share a class: %v", pc.name, broken.Classes())
			}
			ref, err := SolvePartitioned(nil, g, broken, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Cost != got.Cost || !slices.Equal(ref.Assign, got.Assign) {
				t.Fatalf("%s seed %d: cost %d %v with the rule, %d %v without", pc.name, seed, got.Cost, got.Assign, ref.Cost, ref.Assign)
			}
			visited += got.Stats.Visited
			unbroken += ref.Stats.Visited
		}
		if visited >= unbroken {
			t.Errorf("%s: %d visits with the symmetry rule, %d without; the rule skipped nothing", pc.name, visited, unbroken)
		}
		g := gen.New(gen.Defaults(), 7000).Graph()
		checkNodeLimits(t, pc.name, g, pc.plat(g.NumTasks()))
	}
}
