// Package schedule implements the paper's Algorithm 2: atomic-DAG
// scheduling. The DAG is executed in discrete Rounds; each Round selects at
// most N ready atoms (one per engine), synchronized by the last to finish
// (paper Sec. III). The combination space per Round is pruned with the four
// priority rules of Sec. IV-B, and a bounded-lookahead dynamic program over
// the pruned option set picks the combination minimizing the Round cost
// plus the recursively-estimated cost of the remaining sub-DAG — exactly
// the paper's optimal-substructure formulation with the same pruning, made
// tractable by bounding recursion depth and option fan-out.
//
// Two modes are exposed: Greedy applies the priority rules alone and scales
// to DAGs with hundreds of thousands of atoms; DP (the default) explores
// MaxOptions alternatives per Round with Lookahead rounds of recursion and
// subsumes the greedy choice, so it never schedules worse.
package schedule

import (
	"context"
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// Mode selects the search effort.
type Mode int

const (
	// DP is bounded-lookahead dynamic programming over priority-pruned
	// options (the paper's Algorithm 2).
	DP Mode = iota
	// Greedy applies the priority rules with no lookahead.
	Greedy
)

// Options configures the scheduler.
type Options struct {
	Engines    int             // N, number of tensor engines (required)
	Mode       Mode            // search mode (default DP)
	Lookahead  int             // DP recursion depth in Rounds (default 3)
	MaxOptions int             // option fan-out per Round (default 4)
	EngineCfg  engine.Config   // engine pricing the atoms (required)
	Dataflow   engine.Dataflow // dataflow pricing the atoms

	// Oracle prices the atoms (default: a fresh memoized oracle). Pass the
	// run's shared oracle so scheduling reuses evaluations cached during
	// candidate generation.
	Oracle cost.Oracle

	// Ctx, when non-nil, lets callers abandon the search: Build polls it
	// between Rounds and returns the context's error once cancelled. An
	// uncancelled context never changes the schedule produced.
	Ctx context.Context
}

func (o Options) lookahead() int {
	if o.Lookahead <= 0 {
		return 3
	}
	return o.Lookahead
}

func (o Options) maxOptions() int {
	if o.MaxOptions <= 0 {
		return 4
	}
	return o.MaxOptions
}

// Round is one synchronized step: the chosen atoms run on distinct engines
// and the Round ends when the slowest finishes.
type Round struct {
	Atoms []int // atom IDs, at most Options.Engines of them
}

// Schedule is the ordered Round list plus lookup tables used by the
// mapping, buffering and simulation stages.
type Schedule struct {
	Rounds    []Round
	AtomRound []int // atom ID -> round index (-1 for virtual input atoms)

	// ComputeCycles caches each atom's engine cycles under the scheduling
	// engine config/dataflow.
	ComputeCycles []int64
}

// NumRounds returns the schedule length.
func (s *Schedule) NumRounds() int { return len(s.Rounds) }

// MakespanLB returns Σ_t max cycles in Round t — the compute-only lower
// bound on execution time that the scheduler optimizes.
func (s *Schedule) MakespanLB() int64 {
	var total int64
	for _, r := range s.Rounds {
		var worst int64
		for _, id := range r.Atoms {
			if c := s.ComputeCycles[id]; c > worst {
				worst = c
			}
		}
		total += worst
	}
	return total
}

// Build schedules the atomic DAG.
func Build(d *atom.DAG, opt Options) (*Schedule, error) {
	if opt.Engines <= 0 {
		return nil, fmt.Errorf("schedule: Engines = %d", opt.Engines)
	}
	if err := opt.EngineCfg.Validate(); err != nil {
		return nil, err
	}
	st := newState(d, opt)
	sched := &Schedule{
		AtomRound:     make([]int, d.NumAtoms()),
		ComputeCycles: st.cycles,
	}
	for i := range sched.AtomRound {
		sched.AtomRound[i] = -1
	}
	for st.remaining > 0 {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("schedule: %w", err)
			}
		}
		var comb []int
		if opt.Mode == Greedy {
			comb = st.greedyPick()
		} else {
			comb = st.dpPick()
		}
		if len(comb) == 0 {
			return nil, fmt.Errorf("schedule: deadlock with %d atoms remaining", st.remaining)
		}
		t := len(sched.Rounds)
		for _, id := range comb {
			sched.AtomRound[id] = t
		}
		sched.Rounds = append(sched.Rounds, Round{Atoms: comb})
		st.apply(comb)
		st.undoLog = st.undoLog[:0] // a chosen Round is never rolled back
	}
	return sched, nil
}

// state is the mutable scheduling frontier. Per-(sample, layer) state is
// indexed densely by pair = sample*L + layer, L the graph's layer count.
type state struct {
	d   *atom.DAG
	g   *graph.Graph
	opt Options

	cycles    []int64 // per-atom engine cycles
	indeg     []int
	scheduled []bool
	remaining int

	numLayers  int
	topo       []int // topological position -> layer ID
	layerPos   []int // layer ID -> topological position, for deterministic ordering
	layerDepth []int // layer ID -> graph depth

	// ready holds each pair's ready atoms sorted by ascending ID; live
	// lists the pairs whose ready list is non-empty (in no particular
	// order), liveIdx[pair] being the pair's slot in live or -1.
	ready      []readyList
	live       []int
	liveIdx    []int
	readyCount int

	// traversed marks pairs with at least one scheduled atom; pending
	// counts unscheduled atoms per pair.
	traversed []bool
	pending   []int

	// activeDepth counts, per sample*depthSpan + depth, the traversed-
	// but-unfinished pairs at that depth — the rule-2 reference set,
	// maintained incrementally by apply/rollback so pickWithPolicy (called
	// ~MaxOptions·Lookahead times per Round by the DP) reads it in O(1)
	// instead of walking every traversed pair.
	activeDepth []int
	depthSpan   int

	curSample   int
	samplesLeft []int // unscheduled atom count per sample

	totalWork int64 // Σ cycles of unscheduled atoms

	// undoLog is a stack of apply records; entries past its length keep
	// their slices' capacity for reuse by later applies.
	undoLog []undo

	// Reused scratch of pickWithPolicy and options.
	cands  []uint64 // candidate keys, see candKey
	byCost []int
	sorted []int
}

type undo struct {
	comb       []int
	readyAdded []int // atom IDs that became ready during this apply
	newTrav    []int // pairs first traversed during this apply
	prevSample int
	workDelta  int64
}

func (st *state) pair(sample, layer int) int { return sample*st.numLayers + layer }

// pairActive reports whether a pair belongs to the rule-2 reference set:
// traversed with unscheduled atoms left.
func (st *state) pairActive(p int) bool {
	return st.traversed[p] && st.pending[p] > 0
}

// adjustActive reconciles the activeDepth counter after a pair's
// (traversed, pending) transition observed as was → is.
func (st *state) adjustActive(p int, was, is bool) {
	if was == is {
		return
	}
	sample, layer := p/st.numLayers, p%st.numLayers
	dk := sample*st.depthSpan + st.layerDepth[layer]
	if is {
		st.activeDepth[dk]++
	} else {
		st.activeDepth[dk]--
	}
}

func newState(d *atom.DAG, opt Options) *state {
	g := d.Graph
	nl := g.NumLayers()
	pairs := d.Batch * nl
	st := &state{
		d:          d,
		g:          g,
		opt:        opt,
		cycles:     make([]int64, d.NumAtoms()),
		indeg:      make([]int, d.NumAtoms()),
		scheduled:  make([]bool, d.NumAtoms()),
		numLayers:  nl,
		layerPos:   make([]int, nl),
		layerDepth: make([]int, nl),
		ready:      make([]readyList, pairs),
		liveIdx:    make([]int, pairs),
		traversed:  make([]bool, pairs),
		pending:    make([]int, pairs),
	}
	st.topo = g.Topo()
	for i, lid := range st.topo {
		st.layerPos[lid] = i
	}
	for lid, l := range g.Layers {
		st.layerDepth[lid] = l.Depth
		st.depthSpan = max(st.depthSpan, l.Depth+1)
	}
	st.activeDepth = make([]int, d.Batch*st.depthSpan)
	for i := range st.liveIdx {
		st.liveIdx[i] = -1
	}
	st.samplesLeft = make([]int, d.Batch)
	orc := cost.Or(opt.Oracle)
	for _, a := range d.Atoms {
		c := orc.Evaluate(opt.EngineCfg, opt.Dataflow, a.Task)
		st.cycles[a.ID] = c.Cycles
		st.indeg[a.ID] = len(a.Deps)
	}
	// Virtual atoms (graph inputs) complete immediately: they model data
	// already resident in DRAM, not engine work.
	completedVirtual := make([]int, 0)
	for _, a := range d.Atoms {
		if a.Task.Kind == graph.OpInput {
			st.scheduled[a.ID] = true
			completedVirtual = append(completedVirtual, a.ID)
			continue
		}
		st.remaining++
		st.samplesLeft[a.Sample]++
		st.pending[st.pair(a.Sample, a.Layer)]++
		st.totalWork += st.cycles[a.ID]
	}
	for _, a := range d.Atoms {
		if st.scheduled[a.ID] || st.indeg[a.ID] > 0 {
			continue
		}
		// Ready unless it waits on a virtual dep (handled below).
		st.pushReady(a.ID)
	}
	for _, id := range completedVirtual {
		for _, c := range d.Consumers(id) {
			st.indeg[c]--
			if st.indeg[c] == 0 && !st.scheduled[c] {
				st.pushReady(c)
			}
		}
	}
	return st
}

// pushReady inserts id into its pair's ready list, keeping it sorted.
func (st *state) pushReady(id int) {
	a := st.d.Atoms[id]
	p := st.pair(a.Sample, a.Layer)
	st.ready[p].insert(id)
	st.readyCount++
	if st.liveIdx[p] < 0 {
		st.liveIdx[p] = len(st.live)
		st.live = append(st.live, p)
	}
}

// popReady removes id from its pair's ready list.
func (st *state) popReady(id int) {
	a := st.d.Atoms[id]
	p := st.pair(a.Sample, a.Layer)
	if !st.ready[p].remove(id) {
		return
	}
	st.readyCount--
	if st.ready[p].len() == 0 {
		// Swap-remove from live; pickWithPolicy sorts its candidates, so
		// live's order never reaches a decision.
		slot, last := st.liveIdx[p], st.live[len(st.live)-1]
		st.live[slot] = last
		st.liveIdx[last] = slot
		st.live = st.live[:len(st.live)-1]
		st.liveIdx[p] = -1
	}
}

// apply schedules a combination, updating the frontier, and records an
// undo entry for lookahead rollback. comb must stay unmodified until the
// matching rollback.
func (st *state) apply(comb []int) {
	n := len(st.undoLog)
	if n < cap(st.undoLog) {
		st.undoLog = st.undoLog[:n+1]
	} else {
		st.undoLog = append(st.undoLog, undo{})
	}
	u := &st.undoLog[n]
	u.comb, u.prevSample, u.workDelta = comb, st.curSample, 0
	u.readyAdded, u.newTrav = u.readyAdded[:0], u.newTrav[:0]
	for _, id := range comb {
		a := st.d.Atoms[id]
		p := st.pair(a.Sample, a.Layer)
		wasActive := st.pairActive(p)
		st.scheduled[id] = true
		st.remaining--
		st.samplesLeft[a.Sample]--
		st.pending[p]--
		st.totalWork -= st.cycles[id]
		u.workDelta += st.cycles[id]
		st.popReady(id)
		if !st.traversed[p] {
			st.traversed[p] = true
			u.newTrav = append(u.newTrav, p)
		}
		st.adjustActive(p, wasActive, st.pairActive(p))
		for _, c := range st.d.Consumers(id) {
			st.indeg[c]--
			if st.indeg[c] == 0 && !st.scheduled[c] {
				st.pushReady(c)
				u.readyAdded = append(u.readyAdded, c)
			}
		}
	}
	for st.curSample < st.d.Batch && st.samplesLeft[st.curSample] == 0 {
		st.curSample++
	}
}

// rollback undoes the most recent apply.
func (st *state) rollback() {
	u := &st.undoLog[len(st.undoLog)-1]
	st.undoLog = st.undoLog[:len(st.undoLog)-1]
	for i := len(u.readyAdded) - 1; i >= 0; i-- {
		st.popReady(u.readyAdded[i])
	}
	// Reverse order returns each pair's atoms to the front of its ready
	// list one by one, the O(1) path of readyList.insert.
	for i := len(u.comb) - 1; i >= 0; i-- {
		id := u.comb[i]
		a := st.d.Atoms[id]
		p := st.pair(a.Sample, a.Layer)
		wasActive := st.pairActive(p)
		st.scheduled[id] = false
		st.remaining++
		st.samplesLeft[a.Sample]++
		st.pending[p]++
		st.adjustActive(p, wasActive, st.pairActive(p))
		for _, c := range st.d.Consumers(id) {
			st.indeg[c]++
		}
		st.pushReady(id)
	}
	for _, p := range u.newTrav {
		wasActive := st.pairActive(p)
		st.traversed[p] = false
		st.adjustActive(p, wasActive, false)
	}
	st.totalWork += u.workDelta
	st.curSample = u.prevSample
}
