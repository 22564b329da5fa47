// Package platform models the multiprocessor system of the paper's §2.1:
// a set P = {p_q : 1 <= q <= m} of identical processors connected by an
// interconnection network with a "nominal communication delay".
//
// The experimental platform of §4 is a shared-bus homogeneous multiprocessor
// whose bus is time-multiplexed so that the communication cost between two
// processors is one time unit per transmitted data item; communication
// proceeds concurrently with processor computation. Tasks co-located on one
// processor communicate through shared memory at negligible (zero) cost.
package platform

import (
	"fmt"
	"math"

	"repro/internal/taskgraph"
)

// Proc identifies a processor, 0 <= Proc < Platform.M.
type Proc int8

// NoProc is the sentinel "not assigned to any processor" value.
const NoProc Proc = -1

// Platform describes a homogeneous multiprocessor with a uniform
// interconnect. The zero value is unusable; construct with New or a
// composite literal with M >= 1.
type Platform struct {
	// M is the number of identical processors (m in the paper).
	M int

	// CommDelay is the nominal communication delay per transmitted data
	// item: the worst-case per-item cost that reflects the scheduling
	// strategy of the underlying interconnection network. The paper's
	// shared bus has CommDelay = 1.
	CommDelay taskgraph.Time

	// Speed, when non-nil, holds one positive speed factor per processor
	// (the uniform "related machines" model): executing a task with
	// nominal demand c on processor q takes ExecCost(c, q) =
	// ceil(c / Speed[q]) time units. nil (or all factors exactly 1) is the
	// paper's homogeneous model, and every code path then reduces to the
	// identical-processor behaviour bit for bit.
	Speed []float64

	// Affinity, when non-nil, holds one processor bitmask per task
	// (indexed by TaskID): bit q set means the task may execute on
	// processor q. nil (or all masks universal) means unrestricted
	// placement. Affinity restricts M to at most 64 processors.
	Affinity []uint64
}

// New returns a shared-bus platform with m processors and the paper's
// nominal delay of one time unit per data item. It panics when m < 1;
// a platform without processors is always a programming error.
func New(m int) Platform {
	if m < 1 {
		panic(fmt.Sprintf("platform: invalid processor count %d", m))
	}
	return Platform{M: m, CommDelay: 1}
}

// Validate reports whether the platform description is usable.
func (p Platform) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("platform: processor count %d < 1", p.M)
	}
	if p.M > 127 {
		return fmt.Errorf("platform: processor count %d exceeds the Proc representation (127)", p.M)
	}
	if p.CommDelay < 0 {
		return fmt.Errorf("platform: negative nominal delay %d", p.CommDelay)
	}
	if p.Speed != nil && len(p.Speed) != p.M {
		return fmt.Errorf("platform: %d speed factors for %d processors", len(p.Speed), p.M)
	}
	for q, s := range p.Speed {
		if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("platform: speed factor %g for processor %d is not positive and finite", s, q)
		}
	}
	if p.Affinity != nil {
		if p.M > 64 {
			return fmt.Errorf("platform: affinity masks support at most 64 processors, have %d", p.M)
		}
		universe := uint64(1)<<uint(p.M) - 1
		for id, mask := range p.Affinity {
			if mask == 0 {
				return fmt.Errorf("platform: empty affinity mask for task %d", id)
			}
			if mask&^universe != 0 {
				return fmt.Errorf("platform: affinity mask for task %d names a processor >= m=%d", id, p.M)
			}
		}
	}
	return nil
}

// ValidateFor validates the platform against a concrete task count: on top
// of Validate, a non-nil Affinity table must cover exactly n tasks.
func (p Platform) ValidateFor(n int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Affinity != nil && len(p.Affinity) != n {
		return fmt.Errorf("platform: %d affinity masks for %d tasks", len(p.Affinity), n)
	}
	return nil
}

// Uniform reports whether every processor runs at unit speed (including the
// nil Speed table), i.e. the paper's identical-processors model.
func (p Platform) Uniform() bool {
	for _, s := range p.Speed {
		if s != 1 {
			return false
		}
	}
	return true
}

// UniversalAffinity reports whether every task may run on every processor
// (including the nil Affinity table).
func (p Platform) UniversalAffinity() bool {
	if p.Affinity == nil {
		return true
	}
	universe := uint64(1)<<uint(p.M) - 1
	for _, mask := range p.Affinity {
		if mask&universe != universe {
			return false
		}
	}
	return true
}

// Heterogeneous reports whether the platform deviates from the paper's
// model in either dimension: non-unit speed factors or restricted
// affinities. Homogeneous-universal platforms take exactly the legacy code
// paths everywhere heterogeneity is threaded through.
func (p Platform) Heterogeneous() bool {
	return !p.Uniform() || !p.UniversalAffinity()
}

// Classes returns the interchangeability class of every processor.
// Processors share a class exactly when they have the same speed factor
// and the same affinity column (bit q of every task's mask), so swapping
// two of them maps any schedule to one with the same start and finish
// times. Classes are numbered by first appearance in processor order: a
// deterministic function of the platform, with one class (all zeros) on a
// homogeneous-universal platform.
func (p Platform) Classes() []int {
	class := make([]int, p.M)
	var reps []int // the first processor of each class
	for q := range class {
		class[q] = len(reps)
		for c, r := range reps {
			if p.interchangeable(q, r) {
				class[q] = c
				break
			}
		}
		if class[q] == len(reps) {
			reps = append(reps, q)
		}
	}
	return class
}

// interchangeable reports whether processors q and r have the same speed
// factor and the same affinity column.
func (p Platform) interchangeable(q, r int) bool {
	if p.Speed != nil && p.Speed[q] != p.Speed[r] {
		return false
	}
	for _, mask := range p.Affinity {
		if mask>>uint(q)&1 != mask>>uint(r)&1 {
			return false
		}
	}
	return true
}

// Allows reports whether the task may execute on processor q.
func (p Platform) Allows(id taskgraph.TaskID, q Proc) bool {
	if p.Affinity == nil || int(id) >= len(p.Affinity) {
		return true
	}
	return p.Affinity[id]>>uint(q)&1 == 1
}

// AllowedMask returns the bitmask of processors the task may execute on
// (all M bits set under universal affinity).
func (p Platform) AllowedMask(id taskgraph.TaskID) uint64 {
	universe := uint64(1)<<uint(p.M) - 1
	if p.M > 64 {
		universe = ^uint64(0)
	}
	if p.Affinity == nil || int(id) >= len(p.Affinity) {
		return universe
	}
	return p.Affinity[id] & universe
}

// ExecCost returns the execution time of a task with nominal demand c on
// processor q: ceil(c / Speed[q]), or c itself on a unit-speed processor.
// The ceiling keeps times integral; a zero-demand task stays zero-demand
// on every processor.
func (p Platform) ExecCost(c taskgraph.Time, q Proc) taskgraph.Time {
	if p.Speed == nil {
		return c
	}
	s := p.Speed[q]
	if s == 1 || c == 0 {
		return c
	}
	return taskgraph.Time(math.Ceil(float64(c) / s))
}

// MinExecCost returns the smallest execution time of a task with nominal
// demand c over the processors its affinity mask allows. This is the
// admissible per-task demand floor used by the heterogeneous lower bounds.
func (p Platform) MinExecCost(id taskgraph.TaskID, c taskgraph.Time) taskgraph.Time {
	if p.Speed == nil {
		return c
	}
	min := taskgraph.Infinity
	for q := 0; q < p.M; q++ {
		if !p.Allows(id, Proc(q)) {
			continue
		}
		if e := p.ExecCost(c, Proc(q)); e < min {
			min = e
		}
	}
	return min
}

// CommCost returns the worst-case cost of transferring size data items from
// processor src to processor dst: zero when co-located (shared memory),
// size × CommDelay otherwise. Costs are worst-case ("nominal") and do not
// depend on the processor pair, matching the shared-bus model.
func (p Platform) CommCost(src, dst Proc, size taskgraph.Time) taskgraph.Time {
	if src == dst {
		return 0
	}
	return size * p.CommDelay
}

// MessageCost returns the cross-processor cost of a message of the given
// size, i.e. CommCost for distinct processors.
func (p Platform) MessageCost(size taskgraph.Time) taskgraph.Time {
	return size * p.CommDelay
}

func (p Platform) String() string {
	if p.Heterogeneous() {
		return fmt.Sprintf("platform{m=%d, delay=%d, hetero}", p.M, p.CommDelay)
	}
	return fmt.Sprintf("platform{m=%d, delay=%d}", p.M, p.CommDelay)
}
