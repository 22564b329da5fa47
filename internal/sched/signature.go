package sched

import (
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Canonical partial-schedule signature.
//
// Two partial schedules are duplicates exactly when one is a processor
// permutation of the other: the §4.3 operation is symmetric under renaming
// identical processors (CommCost depends only on src==dst), so permuted
// states have identical ready sets, identical ESTs for every (task,
// processor-class) pair, identical Lmax, and therefore identical best
// completions and identical lower bounds. The signature is a 128-bit hash
// of the permutation-normalized state:
//
//	sig = Σ over processors q of  pair( Σ over tasks t on q of task(t, f_t),
//	                                    procFree[q] )
//
// Both sums are commutative, which buys two invariances at once: the inner
// sum makes the per-processor group hash independent of the order tasks
// were appended within q (only the (task, finish) multiset matters — and
// per-processor finish times determine start times under the append-only
// operation), and the outer sum makes the whole signature independent of
// the processor numbering. The per-term mixing (splitmix64 finalizers) is
// non-linear, so structured states do not cancel linearly; two independent
// 64-bit accumulators with distinct seeds bring accidental-collision
// probability to the 2^-128 regime, which the transposition layer treats
// as zero (a collision could prune a non-duplicate; see
// internal/transpose).
//
// Maintenance is O(1) per Place/Undo with pure integer arithmetic — the
// signature is opt-in (EnableSignature) precisely so that searches without
// duplicate detection keep the exact Place/Undo instruction stream the
// bbvet hotalloc gate and the reference-kernel differential tests pin
// down.

// sigSeedLo/sigSeedHi separate the two accumulator streams.
const (
	sigSeedLo = 0xa0761d6478bd642f
	sigSeedHi = 0xe7037ed1a0b428db
)

// stateSig is the incremental signature state embedded in State.
//
// On heterogeneous platforms processor renaming is only an equivalence
// within classes of processors that share a speed factor and are treated
// identically by every task's affinity mask. salt, when non-nil, holds one
// per-processor value that is equal exactly within such interchangeability
// classes and is XORed into the pair-term seeds, so permuting
// non-interchangeable processors changes the signature (soundness) while
// permuting interchangeable ones still does not. On homogeneous-universal
// platforms salt is nil and the arithmetic is bit-identical to the legacy
// signature.
type stateSig struct {
	on      bool
	lo, hi  uint64
	groupLo []uint64 // per-processor Σ task-term (lo stream)
	groupHi []uint64
	salt    []uint64
}

// sigMix is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func sigMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sigTask is the contribution of one placed task to its processor's group.
func sigTask(id taskgraph.TaskID, finish taskgraph.Time, seed uint64) uint64 {
	return sigMix(uint64(id)*0x9e3779b97f4a7c15 ^ uint64(finish) ^ seed)
}

// sigPair combines one processor's group hash with its frontier time. The
// group hash passes through a second non-linear mix so that the outer sum
// over processors cannot cancel group structure linearly.
func sigPair(group uint64, free taskgraph.Time, seed uint64) uint64 {
	return sigMix(group ^ sigMix(uint64(free)+seed))
}

// EnableSignature switches on incremental signature maintenance for this
// state (it cannot be switched off). The current partial schedule is
// hashed from scratch once; every subsequent Place/Undo/Reset keeps the
// signature current in O(1) extra integer work.
func (s *State) EnableSignature() {
	if s.sig.on {
		return
	}
	s.sig.on = true
	s.sig.groupLo = make([]uint64, s.P.M)
	s.sig.groupHi = make([]uint64, s.P.M)
	s.sig.salt = procSalts(s.P)
	s.recomputeSignature()
}

// procSalts returns per-processor seed salts for the signature, or nil on a
// homogeneous-universal platform. Processors receive equal salts exactly
// when they are interchangeable (platform.Classes). Class numbering
// follows first appearance in processor order, so the salts are a
// deterministic function of the platform and signatures remain comparable
// across States (and across fleet slices) solving the same instance.
func procSalts(p platform.Platform) []uint64 {
	if !p.Heterogeneous() {
		return nil
	}
	salts := make([]uint64, p.M)
	for q, c := range p.Classes() {
		salts[q] = sigMix(uint64(c) + 0x5851f42d4c957f2d)
	}
	return salts
}

// Signature returns the 128-bit canonical signature of the current partial
// schedule as two 64-bit words. It panics unless EnableSignature was
// called — a zero signature must never be mistaken for a real one.
func (s *State) Signature() (lo, hi uint64) {
	if !s.sig.on {
		panicSigOff()
	}
	return s.sig.lo, s.sig.hi
}

// recomputeSignature rebuilds the signature from the flat state, the
// O(n+m) reference definition the incremental path must agree with (the
// bbdebug invariant checker re-verifies exactly this).
func (s *State) recomputeSignature() {
	for q := range s.sig.groupLo {
		s.sig.groupLo[q], s.sig.groupHi[q] = 0, 0
	}
	for id := 0; id < len(s.proc); id++ {
		q := s.proc[id]
		if q == platform.NoProc {
			continue
		}
		f := s.finish[id]
		s.sig.groupLo[q] += sigTask(taskgraph.TaskID(id), f, sigSeedLo)
		s.sig.groupHi[q] += sigTask(taskgraph.TaskID(id), f, sigSeedHi)
	}
	s.sig.lo, s.sig.hi = 0, 0
	for q := range s.sig.groupLo {
		free := s.procFree[q]
		lo, hi := s.sigSeeds(platform.Proc(q))
		s.sig.lo += sigPair(s.sig.groupLo[q], free, lo)
		s.sig.hi += sigPair(s.sig.groupHi[q], free, hi)
	}
}

// sigSeeds returns the pair-term seeds for processor q: the global seeds,
// XORed with the processor's interchangeability-class salt on
// heterogeneous platforms.
func (s *State) sigSeeds(q platform.Proc) (lo, hi uint64) {
	if s.sig.salt == nil {
		return sigSeedLo, sigSeedHi
	}
	return sigSeedLo ^ s.sig.salt[q], sigSeedHi ^ s.sig.salt[q]
}

// sigPlace folds one placement into the signature: processor q's pair term
// is swapped for the updated one. oldFree is q's frontier before the
// placement; the placed task's finish is q's new frontier.
func (s *State) sigPlace(id taskgraph.TaskID, q platform.Proc, oldFree, finish taskgraph.Time) {
	seedLo, seedHi := s.sigSeeds(q)
	s.sig.lo -= sigPair(s.sig.groupLo[q], oldFree, seedLo)
	s.sig.hi -= sigPair(s.sig.groupHi[q], oldFree, seedHi)
	s.sig.groupLo[q] += sigTask(id, finish, sigSeedLo)
	s.sig.groupHi[q] += sigTask(id, finish, sigSeedHi)
	s.sig.lo += sigPair(s.sig.groupLo[q], finish, seedLo)
	s.sig.hi += sigPair(s.sig.groupHi[q], finish, seedHi)
}

// sigUnplace is the exact inverse of sigPlace.
func (s *State) sigUnplace(id taskgraph.TaskID, q platform.Proc, prevFree, finish taskgraph.Time) {
	seedLo, seedHi := s.sigSeeds(q)
	s.sig.lo -= sigPair(s.sig.groupLo[q], finish, seedLo)
	s.sig.hi -= sigPair(s.sig.groupHi[q], finish, seedHi)
	s.sig.groupLo[q] -= sigTask(id, finish, sigSeedLo)
	s.sig.groupHi[q] -= sigTask(id, finish, sigSeedHi)
	s.sig.lo += sigPair(s.sig.groupLo[q], prevFree, seedLo)
	s.sig.hi += sigPair(s.sig.groupHi[q], prevFree, seedHi)
}

//go:noinline
func panicSigOff() {
	panic("sched: Signature read without EnableSignature")
}
