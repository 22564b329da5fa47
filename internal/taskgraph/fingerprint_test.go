package taskgraph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// randomDAG builds a random attributed DAG: tasks with random ⟨c, φ, d, T⟩
// and forward arcs with random channel attributes. Period is left 0 (the
// aperiodic mode of the experiments) for half the seeds and harmonic for
// the rest, so both forms are covered.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		exec := Time(1 + rng.Intn(40))
		t := Task{
			Exec:     exec,
			Phase:    Time(rng.Intn(20)),
			Deadline: exec + Time(rng.Intn(100)),
		}
		if rng.Intn(2) == 0 {
			t.Period = t.Deadline + Time(rng.Intn(50))
		}
		g.AddTask(t)
	}
	for dst := 1; dst < n; dst++ {
		for _, src := range rng.Perm(dst)[:rng.Intn(min(dst, 3)+1)] {
			g.MustAddEdge(TaskID(src), TaskID(dst), Time(rng.Intn(30)))
			ch, _ := g.ChannelPtr(TaskID(src), TaskID(dst))
			ch.Arrival, ch.Deadline = Time(rng.Intn(10)), Time(rng.Intn(10))
		}
	}
	return g
}

func randomPerm(rng *rand.Rand, n int) []TaskID {
	perm := make([]TaskID, n)
	for i, p := range rng.Perm(n) {
		perm[i] = TaskID(p)
	}
	return perm
}

// TestFingerprintDeterministic pins that the digest is a pure function of
// the graph: repeated computation and computation on a deep copy agree.
func TestFingerprintDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := randomDAG(rng, 2+rng.Intn(18))
		fp := g.Fingerprint()
		if fp.IsZero() {
			t.Fatal("zero fingerprint")
		}
		if got := g.Fingerprint(); got != fp {
			t.Fatalf("instance %d: fingerprint not deterministic", i)
		}
		if got := g.Clone().Fingerprint(); got != fp {
			t.Fatalf("instance %d: clone fingerprint differs", i)
		}
	}
}

// TestFingerprintRelabelingInvariant is the canonicality property: the same
// DAG under a permuted task numbering hashes identically, even though the
// JSON encodings differ.
func TestFingerprintRelabelingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		g := randomDAG(rng, 2+rng.Intn(18))
		fp := g.Fingerprint()
		for k := 0; k < 3; k++ {
			perm := randomPerm(rng, g.NumTasks())
			rg, err := Relabel(g, perm)
			if err != nil {
				t.Fatalf("instance %d: Relabel: %v", i, err)
			}
			if got := rg.Fingerprint(); got != fp {
				t.Fatalf("instance %d perm %d: relabeled fingerprint differs\nperm=%v", i, k, perm)
			}
		}
	}
}

// TestFingerprintSensitivity pins the other half of the contract: any edit
// to a task's ⟨c, φ, d, T⟩, to a channel attribute, or to the arc set
// changes the digest.
func TestFingerprintSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		g := randomDAG(rng, 3+rng.Intn(15))
		fp := g.Fingerprint()
		id := TaskID(rng.Intn(g.NumTasks()))

		edits := []struct {
			name string
			edit func(*Graph) bool // returns false when inapplicable
		}{
			{"exec", func(m *Graph) bool { m.TaskPtr(id).Exec++; return true }},
			{"phase", func(m *Graph) bool { m.TaskPtr(id).Phase++; return true }},
			{"deadline", func(m *Graph) bool { m.TaskPtr(id).Deadline++; return true }},
			{"period", func(m *Graph) bool { m.TaskPtr(id).Period += 7; return true }},
			{"channel size", func(m *Graph) bool {
				if m.NumEdges() == 0 {
					return false
				}
				c := m.Channels()[rng.Intn(m.NumEdges())]
				ch, _ := m.ChannelPtr(c.Src, c.Dst)
				ch.Size++
				return true
			}},
			{"channel window", func(m *Graph) bool {
				if m.NumEdges() == 0 {
					return false
				}
				c := m.Channels()[rng.Intn(m.NumEdges())]
				ch, _ := m.ChannelPtr(c.Src, c.Dst)
				ch.Deadline++
				return true
			}},
			{"added arc", func(m *Graph) bool {
				for a := 0; a < m.NumTasks(); a++ {
					for b := a + 1; b < m.NumTasks(); b++ {
						if _, dup := m.Channel(TaskID(a), TaskID(b)); !dup {
							m.MustAddEdge(TaskID(a), TaskID(b), 5)
							return true
						}
					}
				}
				return false
			}},
		}
		for _, e := range edits {
			m := g.Clone()
			if !e.edit(m) {
				continue
			}
			if m.Fingerprint() == fp {
				t.Fatalf("instance %d: edit %q did not change the fingerprint", i, e.name)
			}
		}
	}
}

// TestFingerprintNameInsensitive pins that renaming tasks — which never
// affects scheduling — does not change the digest.
func TestFingerprintNameInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomDAG(rng, 12)
	fp := g.Fingerprint()
	for i := 0; i < g.NumTasks(); i++ {
		g.TaskPtr(TaskID(i)).Name = "renamed"
	}
	if g.Fingerprint() != fp {
		t.Fatal("renaming tasks changed the fingerprint")
	}
}

// TestCanonicalIsRelabelingOfInput pins that Canonical returns exactly
// Relabel(g, perm): same instance, new numbering, nothing dropped.
func TestCanonicalIsRelabelingOfInput(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 50; i++ {
		g := randomDAG(rng, 2+rng.Intn(18))
		canon, perm, err := g.Canonical()
		if err != nil {
			t.Fatalf("instance %d: Canonical: %v", i, err)
		}
		want, err := Relabel(g, perm)
		if err != nil {
			t.Fatalf("instance %d: Canonical returned a bad permutation %v: %v", i, perm, err)
		}
		cb, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cb, wb) {
			t.Fatalf("instance %d: canonical graph is not Relabel(g, perm)", i)
		}
		if canon.Fingerprint() != g.Fingerprint() {
			t.Fatalf("instance %d: canonicalization changed the fingerprint", i)
		}
	}
}

// TestCanonicalBytesRelabelingInvariant is the exact-identity property the
// serving cache keys on: any relabeling of an instance canonicalizes to
// byte-identical codec bytes, so isomorphic requests share a cache line
// while (unlike the WL fingerprint alone) structurally different graphs
// never can — the key IS the encoding.
func TestCanonicalBytesRelabelingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 60; i++ {
		g := randomDAG(rng, 2+rng.Intn(18))
		canon, _, err := g.Canonical()
		if err != nil {
			t.Fatalf("instance %d: Canonical: %v", i, err)
		}
		base, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			perm := randomPerm(rng, g.NumTasks())
			rg, err := Relabel(g, perm)
			if err != nil {
				t.Fatalf("instance %d: Relabel: %v", i, err)
			}
			rcanon, _, err := rg.Canonical()
			if err != nil {
				t.Fatalf("instance %d: Canonical(relabeled): %v", i, err)
			}
			got, err := json.Marshal(rcanon)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, base) {
				t.Fatalf("instance %d perm %d: canonical bytes differ under relabeling\nperm=%v", i, k, perm)
			}
		}
	}
}

func TestRelabelRejectsBadPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomDAG(rng, 5)
	for _, perm := range [][]TaskID{
		{0, 1, 2},        // wrong length
		{0, 1, 2, 3, 5},  // out of range
		{0, 1, 2, 2, 3},  // not injective
		{-1, 0, 1, 2, 3}, // negative
	} {
		if _, err := Relabel(g, perm); err == nil {
			t.Errorf("Relabel accepted bad permutation %v", perm)
		}
	}
}

func mustJSON(t *testing.T, g *Graph) []byte {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzCanonical checks Canonical on every graph the JSON codec accepts: it
// never fails, it returns exactly Relabel(g, perm), it is idempotent, and
// when refinement separates every task, relabeling the input by a
// permutation drawn from seed leaves the canonical bytes unchanged.
func FuzzCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var g Graph
		if json.Unmarshal(data, &g) != nil {
			return
		}
		canon, perm, err := g.Canonical()
		if err != nil {
			t.Fatalf("Canonical: %v", err)
		}
		base := mustJSON(t, canon)
		want, err := Relabel(&g, perm)
		if err != nil {
			t.Fatalf("Canonical returned a bad permutation %v: %v", perm, err)
		}
		if !bytes.Equal(mustJSON(t, want), base) {
			t.Fatalf("canonical graph is not Relabel(g, perm)")
		}
		again, _, err := canon.Canonical()
		if err != nil {
			t.Fatalf("Canonical(canonical): %v", err)
		}
		if !bytes.Equal(mustJSON(t, again), base) {
			t.Fatalf("Canonical is not idempotent")
		}

		if tiedTasks(classes(g.refinedSignatures())) > 0 {
			return
		}
		perm = randomPerm(rand.New(rand.NewSource(seed)), g.NumTasks())
		rg, err := Relabel(&g, perm)
		if err != nil {
			t.Fatalf("Relabel: %v", err)
		}
		rcanon, _, err := rg.Canonical()
		if err != nil {
			t.Fatalf("Canonical(relabeled): %v", err)
		}
		if !bytes.Equal(mustJSON(t, rcanon), base) {
			t.Fatalf("canonical bytes differ under relabeling perm=%v", perm)
		}
	})
}

// benchGraphs returns 64 random 14-task DAGs, the size of the serving
// benchmark's m=2 instances.
func benchGraphs() []*Graph {
	rng := rand.New(rand.NewSource(67))
	gs := make([]*Graph, 64)
	for i := range gs {
		gs[i] = randomDAG(rng, 14)
	}
	return gs
}

func BenchmarkCanonical(b *testing.B) {
	gs := benchGraphs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gs[i%len(gs)].Canonical(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	gs := benchGraphs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gs[i%len(gs)].Fingerprint()
	}
}
