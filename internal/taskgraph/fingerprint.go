package taskgraph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
)

// Fingerprint is a relabeling-invariant 256-bit digest of a task graph:
// two graphs that are identical up to a relabeling of task IDs produce the
// same fingerprint, and any change to a scheduling-relevant parameter — a
// task's ⟨c, φ, d, T⟩ tuple, an arc, or a channel's ⟨m, a, d⟩ attributes —
// changes it in practice. Task names are deliberately excluded: they never
// affect scheduling.
//
// The digest is NOT a proof of isomorphism. It is built from 1-WL color
// refinement (see Graph.Fingerprint), and 1-WL is incomplete: structurally
// different graphs whose refinement histories coincide collide
// deterministically, not with cryptographic-hash probability. The
// refinement's per-task signatures are 128-bit non-cryptographic mixes, so
// a crafted graph can also make two of them collide. Use the fingerprint
// for grouping, binning and fast negative checks; anything that must never
// confuse two distinct instances (such as a result cache) has to compare
// exact canonical encodings — Canonical provides the canonical form whose
// binary encoding (AppendKey) serves as that exact identity.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports the zero (never produced by Fingerprint) value.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Fingerprint computes the canonical digest of the graph.
//
// The construction is a Weisfeiler–Leman style color refinement adapted to
// attributed DAGs (see refinedSignatures): after depth(G) rounds a task's
// 128-bit signature encodes its entire ancestor and descendant structure.
// The digest is one SHA-256, tagged taskgraph/fingerprint/v2, over the
// sorted multiset of task signatures followed by the sorted multiset of arc
// signatures (an arc's endpoint signatures and channel attributes) — both
// multisets are invariant under any permutation of task IDs by
// construction. The tag names the construction: a fingerprint from a build
// with another tag (v1 hashed 256-bit SHA-256 signatures) never equals one
// from this build.
//
// Tasks that still share a signature after full refinement occupy
// either genuinely symmetric positions or positions 1-WL cannot tell apart.
// The former is the common case on attributed scheduling DAGs; the latter
// is the known incompleteness of color refinement, which is why the digest
// must not be used as an exact identity (see the Fingerprint type docs).
func (g *Graph) Fingerprint() Fingerprint {
	// sigs holds the task signatures, then one signature per arc.
	sigs := g.refinedSignatures()
	n := len(sigs)
	for _, c := range g.list {
		s, d := sigs[c.Src], sigs[c.Dst]
		sigs = append(sigs, mix(roleArc, s[0], s[1], d[0], d[1], uint64(c.Size), uint64(c.Arrival), uint64(c.Deadline)))
	}
	slices.SortFunc(sigs[:n], signature.compare)
	slices.SortFunc(sigs[n:], signature.compare)

	buf := make([]byte, 0, 40+16*len(sigs))
	buf = append(buf, "taskgraph/fingerprint/v2"...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(g.list)))
	for _, s := range sigs {
		buf = binary.LittleEndian.AppendUint64(buf, s[0])
		buf = binary.LittleEndian.AppendUint64(buf, s[1])
	}
	return sha256.Sum256(buf)
}

// signature is a 128-bit refinement color: two 64-bit lanes, each its own
// hash function of the same input (see mix), so two inputs share a
// signature only when both lanes collide.
type signature [2]uint64

func (s signature) compare(t signature) int {
	if c := cmp.Compare(s[0], t[0]); c != 0 {
		return c
	}
	return cmp.Compare(s[1], t[1])
}

// Record roles. Every mixed record starts with its role, so records of
// different kinds live in disjoint hash domains.
const (
	roleTask uint64 = iota + 1 // a task's ⟨c, φ, d, T⟩ and degrees
	roleSelf                   // a task's previous-round signature
	rolePred                   // an incoming arc's channel ⟨m, a, d⟩
	roleSucc                   // an outgoing arc's channel ⟨m, a, d⟩
	roleArc                    // an arc in the Fingerprint digest
)

// mix hashes a role-tagged record of fields into a signature. Each lane is
// the chain h ← fmix64(h ⊕ x) over the role and the fields, started from
// its own seed; fmix64 is MurmurHash3's full-avalanche finalizer, so each
// input bit flips every output bit with probability close to 1/2.
func mix(role uint64, fields ...uint64) signature {
	a := fmix64(0x9e3779b97f4a7c15 ^ role)
	b := fmix64(0xd1b54a32d192ed03 ^ role)
	for _, x := range fields {
		a, b = fmix64(a^x), fmix64(b^x)
	}
	return signature{a, b}
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// refinedSignatures runs the WL color refinement to its fixpoint bound and
// returns the final per-task signatures. A task starts from the mix of its
// ⟨c, φ, d, T⟩ tuple and degrees. Each round first remixes every signature
// under roleSelf, then sets a task's new signature to the lane-wise sum of
// its own remix and one term per incident arc: the neighbour's remix joined
// with the arc's channel ⟨m, a, d⟩, folded once per direction before the
// rounds. Addition ignores the order of a task's arcs, so no neighbour list
// is sorted. The signature of a task depends only on its attributes and its
// position in the graph, never on its ID, so the slice read as a multiset
// is relabeling-invariant. It is shared by Fingerprint (which hashes the
// multiset) and Canonical (which sorts tasks by it).
func (g *Graph) refinedSignatures() []signature {
	cur := make([]signature, len(g.tasks))
	next := make([]signature, len(g.tasks))
	for i := range g.tasks {
		t := &g.tasks[i]
		cur[i] = mix(roleTask, uint64(t.Exec), uint64(t.Phase), uint64(t.Deadline), uint64(t.Period),
			uint64(len(g.preds[i])), uint64(len(g.succs[i])))
	}
	// pred[k] keys arc k as its destination's incoming arc, succ[k] as its
	// source's outgoing one.
	pred := make([]signature, len(g.list))
	succ := make([]signature, len(g.list))
	for k, c := range g.list {
		pred[k] = mix(rolePred, uint64(c.Size), uint64(c.Arrival), uint64(c.Deadline))
		succ[k] = mix(roleSucc, uint64(c.Size), uint64(c.Arrival), uint64(c.Deadline))
	}

	self := mix(roleSelf)
	for r := g.refinementRounds(); r > 0; r-- {
		for i, s := range cur {
			// mix(roleSelf, s[0], s[1]), written out: this loop is the hot one.
			cur[i] = signature{fmix64(fmix64(self[0]^s[0]) ^ s[1]), fmix64(fmix64(self[1]^s[0]) ^ s[1])}
			next[i] = cur[i]
		}
		for k, c := range g.list {
			next[c.Dst].add(cur[c.Src].join(pred[k]))
			next[c.Src].add(cur[c.Dst].join(succ[k]))
		}
		cur, next = next, cur
	}
	return cur
}

// join mixes a neighbour's remixed signature with an arc key, lane by lane.
func (s signature) join(key signature) signature {
	return signature{fmix64(s[0] ^ key[0]), fmix64(s[1] ^ key[1])}
}

func (s *signature) add(t signature) { s[0] += t[0]; s[1] += t[1] }

// Canonical returns a copy of the graph relabeled into canonical task
// order, together with the permutation that produced it (perm[old] = new).
// Tasks are ordered by their fully refined 128-bit WL signatures, so for
// graphs whose refinement separates all non-symmetric tasks — the
// overwhelmingly common case on attributed scheduling DAGs — any two
// relabelings of the same instance canonicalize to byte-identical
// encodings, JSON codec and AppendKey alike. Those canonical bytes are an
// *exact* identity: unlike Fingerprint, two structurally different graphs
// can never share them.
//
// Ties between tasks that WL refinement cannot distinguish, or whose
// signatures collide, are broken by the original task ID. When such tied
// tasks are interchangeable (automorphic) the canonical bytes are
// unaffected; otherwise two relabelings of one graph may canonicalize
// differently. That only costs a missed match for consumers keying on
// canonical bytes — never a false one. The order is a function of the
// signature construction: a build with a different refinement numbers the
// same graph differently, so canonical bytes (and keys derived from them)
// only match between builds that share it.
func (g *Graph) Canonical() (*Graph, []TaskID, error) {
	sig := g.refinedSignatures()
	order := make([]TaskID, len(sig))
	for i := range order {
		order[i] = TaskID(i)
	}
	slices.SortFunc(order, func(a, b TaskID) int {
		if c := sig[a].compare(sig[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	perm := make([]TaskID, len(order))
	for rank, old := range order {
		perm[old] = TaskID(rank)
	}
	canon, err := Relabel(g, perm)
	if err != nil {
		return nil, nil, err
	}
	return canon, perm, nil
}

// refinementRounds returns how many refinement iterations are needed for a
// signature to absorb the whole graph: the number of precedence levels for
// a DAG, or |N| as a safe canonical bound when the graph (not yet
// validated) contains a cycle.
func (g *Graph) refinementRounds() int {
	if _, err := g.TopoOrder(); err != nil {
		return len(g.tasks)
	}
	return g.Depth()
}

// Relabel returns a copy of the graph with task IDs permuted: old task i
// becomes new task perm[i], keeping every task parameter, arc and channel
// attribute. perm must be a bijection on [0, NumTasks). Relabel is the
// test oracle for Fingerprint invariance and a building block for
// canonicalizing stored instances.
func Relabel(g *Graph, perm []TaskID) (*Graph, error) {
	n := g.NumTasks()
	if len(perm) != n {
		return nil, fmt.Errorf("taskgraph: Relabel permutation has %d entries for %d tasks", len(perm), n)
	}
	inv := make([]TaskID, n)
	for i := range inv {
		inv[i] = NoTask
	}
	for oldID, newID := range perm {
		if newID < 0 || int(newID) >= n || inv[newID] != NoTask {
			return nil, fmt.Errorf("taskgraph: Relabel permutation is not a bijection at %d→%d", oldID, newID)
		}
		inv[newID] = TaskID(oldID)
	}
	out := New(n)
	for newID := 0; newID < n; newID++ {
		out.AddTask(g.tasks[inv[newID]]) // AddTask overwrites the ID field
	}
	for _, c := range g.list {
		if err := out.AddEdge(perm[c.Src], perm[c.Dst], c.Size); err != nil {
			return nil, err
		}
		ch, _ := out.ChannelPtr(perm[c.Src], perm[c.Dst])
		ch.Arrival, ch.Deadline = c.Arrival, c.Deadline
	}
	return out, nil
}
