package hetero

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/deadline"
	"repro/internal/edf"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// refSolver is the partitioned search before its bound was factored: one
// full O(V+E+M) sweep per child (bound) and a ready-scan EDF simulation
// per leaf (readyScanLmax). It is kept as the reference the search under
// test must match vertex for vertex. Like the search, it checks NodeLimit
// on every visit; it has no clock or context.
type refSolver struct {
	g         *taskgraph.Graph
	p         platform.Platform
	nodeLimit int64
	topo      []taskgraph.TaskID

	cur    []platform.Proc
	arr    []taskgraph.Time
	exec   []taskgraph.Time
	dl     []taskgraph.Time
	fhat   []taskgraph.Time
	loadQ  []taskgraph.Time
	minAQ  []taskgraph.Time
	maxDQ  []taskgraph.Time
	st     *sched.State
	ready  []taskgraph.TaskID
	incBuf []platform.Proc

	incCost taskgraph.Time
	stopped bool
	stats   Stats
}

func solvePartitionedReference(g *taskgraph.Graph, p platform.Platform, nodeLimit int64) (Result, error) {
	n := g.NumTasks()
	topo, err := g.TopoOrder()
	if err != nil {
		return Result{}, err
	}
	s := &refSolver{
		g: g, p: p, nodeLimit: nodeLimit, topo: topo,
		cur:    make([]platform.Proc, n),
		arr:    make([]taskgraph.Time, n),
		exec:   make([]taskgraph.Time, n),
		dl:     make([]taskgraph.Time, n),
		fhat:   make([]taskgraph.Time, n),
		loadQ:  make([]taskgraph.Time, p.M),
		minAQ:  make([]taskgraph.Time, p.M),
		maxDQ:  make([]taskgraph.Time, p.M),
		st:     sched.NewState(g, p),
		incBuf: make([]platform.Proc, n),
	}
	for i := 0; i < n; i++ {
		t := g.Task(taskgraph.TaskID(i))
		s.arr[i], s.dl[i] = t.Arrival(), t.AbsDeadline()
		s.exec[i] = t.Exec
		s.cur[i] = platform.NoProc
	}
	seed, err := edf.Schedule(g, p)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n; i++ {
		s.incBuf[i] = seed.Schedule.Proc(taskgraph.TaskID(i))
	}
	s.incCost = readyScanLmax(s.st, s.incBuf)
	res := Result{Lower: s.bound()}
	s.dfs(0)
	res.Cost, res.Optimal, res.Stats = s.incCost, !s.stopped, s.stats
	res.Assign = append([]platform.Proc(nil), s.incBuf...)
	return res, nil
}

func (s *refSolver) dfs(k int) {
	if s.stopped {
		return
	}
	s.stats.Visited++
	if s.nodeLimit > 0 && s.stats.Visited > s.nodeLimit {
		s.stopped, s.stats.TimedOut = true, true
		return
	}
	if k == len(s.topo) {
		s.stats.Evaluated++
		cost := readyScanLmax(s.st, s.cur)
		if cost < s.incCost {
			s.incCost = cost
			copy(s.incBuf, s.cur)
			s.stats.IncumbentUpdates++
		}
		return
	}
	id := s.topo[k]
	for mask := s.p.AllowedMask(id); mask != 0; mask &= mask - 1 {
		q := platform.Proc(bits.TrailingZeros64(mask))
		s.cur[id] = q
		if lb := s.bound(); lb >= s.incCost {
			s.stats.Pruned++
		} else {
			s.dfs(k + 1)
		}
		s.cur[id] = platform.NoProc
		if s.stopped {
			return
		}
	}
}

func (s *refSolver) bound() taskgraph.Time {
	l := taskgraph.MinTime
	for q := 0; q < s.p.M; q++ {
		s.loadQ[q] = 0
		s.minAQ[q] = taskgraph.Infinity
		s.maxDQ[q] = taskgraph.MinTime
	}
	for _, id := range s.topo {
		q := s.cur[id]
		var c taskgraph.Time
		if q == platform.NoProc {
			c = s.p.MinExecCost(id, s.exec[id])
		} else {
			c = s.p.ExecCost(s.exec[id], q)
			s.loadQ[q] += c
			if s.arr[id] < s.minAQ[q] {
				s.minAQ[q] = s.arr[id]
			}
			if s.dl[id] > s.maxDQ[q] {
				s.maxDQ[q] = s.dl[id]
			}
		}
		floor := s.arr[id]
		est := floor + c
		for _, pred := range s.g.Preds(id) {
			ready := s.fhat[pred]
			if pq := s.cur[pred]; pq != platform.NoProc && q != platform.NoProc {
				ready += s.p.CommCost(pq, q, s.g.MessageSize(pred, id))
			}
			if ready < floor {
				ready = floor
			}
			if ready+c > est {
				est = ready + c
			}
		}
		s.fhat[id] = est
		if lat := est - s.dl[id]; lat > l {
			l = lat
		}
	}
	for q := 0; q < s.p.M; q++ {
		if s.loadQ[q] == 0 {
			continue
		}
		if lat := s.minAQ[q] + s.loadQ[q] - s.maxDQ[q]; lat > l {
			l = lat
		}
	}
	return l
}

// readyScanLmax is the partitioned-EDF simulation before its order was
// fixed: from an empty schedule, n times, scan every task for readiness
// and place the earliest-deadline ready one (smallest ID on ties).
func readyScanLmax(st *sched.State, assign []platform.Proc) taskgraph.Time {
	g := st.G
	st.Reset()
	var ready []taskgraph.TaskID
	for step := 0; step < g.NumTasks(); step++ {
		ready = st.ReadyTasks(ready[:0])
		best := ready[0]
		for _, id := range ready[1:] {
			if g.Task(id).AbsDeadline() < g.Task(best).AbsDeadline() {
				best = id
			}
		}
		st.Place(best, assign[best])
	}
	return st.Lmax()
}

// benchPlatform is bbperf's hetero-mix platform: speed factors 1,2,1,2 and
// every fourth task barred from processor 0.
func benchPlatform(n int) platform.Platform {
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

// The factored search must walk exactly the reference's tree: the same
// cost, root bound, flags, assignment and counters, on runs that finish
// and on runs a node limit stops.
func TestSolvePartitionedMatchesReference(t *testing.T) {
	const cap = 2000
	platforms := []struct {
		name string
		plat func(n int) platform.Platform
	}{
		{"bench", benchPlatform},
		{"homogeneous", func(int) platform.Platform { return platform.New(3) }},
		{"speeds", func(int) platform.Platform {
			return platform.Platform{M: 3, CommDelay: 1, Speed: []float64{1, 0.5, 1.5}}
		}},
	}
	var runs, limited int
	for seed := int64(0); seed < 30; seed++ {
		g := gen.New(gen.Defaults(), 5000+seed).Graph()
		if err := deadline.Assign(g, gen.Defaults().Laxity, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		for _, pc := range platforms {
			p := pc.plat(g.NumTasks())
			for _, limit := range []int64{cap, 1, 40, 300} {
				name := fmt.Sprintf("seed %d %s limit %d", seed, pc.name, limit)
				want, err := solvePartitionedReference(g, p, limit)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := SolvePartitioned(nil, g, p, Options{NodeLimit: limit})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got.Stats.Elapsed, got.Schedule = 0, nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got  %+v\n want %+v", name, got, want)
				}
				runs++
				if !got.Optimal {
					limited++
				}
			}
		}
	}
	if limited == 0 || limited == runs {
		t.Fatalf("%d of %d runs stopped by the node limit; the inputs must cover both exits", limited, runs)
	}
}
