package taskgraph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/rand"
	"sort"
	"testing"
)

// sha256Signatures is the SHA-256 color refinement that refinedSignatures
// replaced, kept as a reference: one digest per task record and per arc in
// every round, with each neighbour multiset hashed in sorted order. The
// refinement under test must split tasks into exactly the classes this one
// does.
func sha256Signatures(g *Graph) []Fingerprint {
	n := len(g.tasks)
	sig := make([]Fingerprint, n)
	for i := range g.tasks {
		t := &g.tasks[i]
		sig[i] = hashRecord('T',
			uint64(t.Exec), uint64(t.Phase), uint64(t.Deadline), uint64(t.Period),
			uint64(len(g.preds[i])), uint64(len(g.succs[i])))
	}

	for r := 0; r < g.refinementRounds(); r++ {
		next := make([]Fingerprint, n)
		var neigh []Fingerprint
		for i := range sig {
			h := sha256.New()
			put(h, []byte{'R'})
			put(h, sig[i][:])

			neigh = neigh[:0]
			for _, p := range g.preds[i] {
				neigh = append(neigh, arcSig(g, 'P', sig[p], p, TaskID(i)))
			}
			writeSortedSigs(h, neigh)

			neigh = neigh[:0]
			for _, s := range g.succs[i] {
				neigh = append(neigh, arcSig(g, 'S', sig[s], TaskID(i), s))
			}
			writeSortedSigs(h, neigh)

			h.Sum(next[i][:0])
		}
		sig = next
	}
	return sig
}

// arcSig combines a neighbour's signature with the attributes of the
// connecting channel.
func arcSig(g *Graph, tag byte, neighbour Fingerprint, src, dst TaskID) Fingerprint {
	c, _ := g.Channel(src, dst)
	return hashRecord(tag,
		binary.LittleEndian.Uint64(neighbour[:8]), binary.LittleEndian.Uint64(neighbour[8:16]),
		binary.LittleEndian.Uint64(neighbour[16:24]), binary.LittleEndian.Uint64(neighbour[24:]),
		uint64(c.Size), uint64(c.Arrival), uint64(c.Deadline))
}

func hashRecord(tag byte, fields ...uint64) Fingerprint {
	h := sha256.New()
	put(h, []byte{tag})
	var buf [8]byte
	for _, f := range fields {
		binary.LittleEndian.PutUint64(buf[:], f)
		put(h, buf[:])
	}
	var out Fingerprint
	h.Sum(out[:0])
	return out
}

// put feeds b to the hash; hash writes are defined to never fail.
func put(h hash.Hash, b []byte) { _, _ = h.Write(b) }

// writeSortedSigs hashes a multiset of signatures order-independently by
// sorting a copy before feeding it to h.
func writeSortedSigs(h hash.Hash, sigs []Fingerprint) {
	sorted := append([]Fingerprint(nil), sigs...)
	sort.Slice(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i][:], sorted[j][:]) < 0
	})
	for i := range sorted {
		put(h, sorted[i][:])
	}
}

// classes numbers each task's signature class by first occurrence: two
// refinements split the tasks alike exactly when their class slices are
// equal.
func classes[S comparable](sig []S) []int {
	ids := make(map[S]int, len(sig))
	out := make([]int, len(sig))
	for i, s := range sig {
		c, ok := ids[s]
		if !ok {
			c = len(ids)
			ids[s] = c
		}
		out[i] = c
	}
	return out
}

// tiedTasks counts the tasks that share their signature class with another.
func tiedTasks(class []int) int {
	size := make(map[int]int, len(class))
	for _, c := range class {
		size[c]++
	}
	tied := 0
	for _, c := range class {
		if size[c] > 1 {
			tied++
		}
	}
	return tied
}

// coarsen collapses a graph's attributes onto two values each, so many
// tasks agree locally and only the structure can tell them apart.
func coarsen(g *Graph) *Graph {
	for i := range g.tasks {
		t := &g.tasks[i]
		t.Exec, t.Phase, t.Deadline, t.Period = 1+t.Exec%2, 0, 100, 0
	}
	for k := range g.list {
		c := &g.list[k]
		c.Size, c.Arrival, c.Deadline = c.Size%2, 0, 0
	}
	return g
}

// forkJoin builds source → width parallel chains of length depth → sink,
// every chain task alike, so tasks at the same chain depth are tied. With
// skew set, the first chain's first arc carries a larger message, which
// unties that chain from the rest.
func forkJoin(width, depth int, skew bool) *Graph {
	g := New(2 + width*depth)
	task := Task{Exec: 3, Deadline: 50}
	src := g.AddTask(task)
	sink := g.AddTask(task)
	for w := 0; w < width; w++ {
		prev := src
		for d := 0; d < depth; d++ {
			id := g.AddTask(task)
			size := Time(2)
			if skew && w == 0 && d == 0 {
				size = 5
			}
			g.MustAddEdge(prev, id, size)
			prev = id
		}
		g.MustAddEdge(prev, sink, 2)
	}
	return g
}

// crowns builds two bipartite crowns of alike tasks: a 6-cycle (three
// sources, three sinks, each source feeding two sinks) and a 4-cycle. Every
// source has out-degree 2 and every sink in-degree 2, so 1-WL ties a source
// of one crown with a source of the other although no automorphism maps one
// onto the other.
func crowns() *Graph {
	g := New(10)
	task := Task{Exec: 2, Deadline: 40}
	for i := 0; i < 10; i++ {
		g.AddTask(task)
	}
	for i := 0; i < 3; i++ {
		g.MustAddEdge(TaskID(i), TaskID(3+i), 1)
		g.MustAddEdge(TaskID(i), TaskID(3+(i+1)%3), 1)
	}
	for i := 0; i < 2; i++ {
		g.MustAddEdge(TaskID(6+i), 8, 1)
		g.MustAddEdge(TaskID(6+i), 9, 1)
	}
	return g
}

// TestRefinementMatchesSHA256Reference pins that the 128-bit refinement
// splits tasks into exactly the signature classes of the SHA-256 reference,
// on random DAGs, on coarsened random DAGs, and on symmetric graphs with
// tied tasks.
func TestRefinementMatchesSHA256Reference(t *testing.T) {
	check := func(name string, g *Graph) int {
		t.Helper()
		want := classes(sha256Signatures(g))
		got := classes(g.refinedSignatures())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: signature classes differ\nrefinedSignatures %v\nSHA-256 reference %v", name, got, want)
			}
		}
		return tiedTasks(want)
	}

	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 2000; i++ {
		check("random", randomDAG(rng, 2+rng.Intn(18)))
	}
	coarseTied := 0
	for i := 0; i < 500; i++ {
		coarseTied += check("coarsened", coarsen(randomDAG(rng, 2+rng.Intn(18))))
	}
	if coarseTied == 0 {
		t.Error("no coarsened random DAG had tied tasks; the coarse family tests nothing")
	}

	for _, tc := range []struct {
		name string
		g    *Graph
		tied int
	}{
		{"fork-join 3x1", forkJoin(3, 1, false), 3},
		{"fork-join 4x2", forkJoin(4, 2, false), 8},
		{"fork-join 3x2 skewed", forkJoin(3, 2, true), 4},
		{"crowns", crowns(), 10},
	} {
		if got := check(tc.name, tc.g); got != tc.tied {
			t.Errorf("%s: %d tied tasks, want %d", tc.name, got, tc.tied)
		}
	}
}
