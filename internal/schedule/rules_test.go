package schedule

import (
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// siblingsGraph: input feeds A and B (same depth); both feed an add.
// A has many atoms, B few — rule 2 must pull B's atoms into A's rounds
// once A alone cannot fill the engines.
func siblingsGraph(t *testing.T) (*atom.DAG, int, int) {
	t.Helper()
	g := graph.New("sib")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 16, Wo: 4, Co: 4})
	a := g.AddLayer("a", graph.OpConv, graph.ConvShape(16, 4, 4, 4, 1, 1, 0), in)
	bl := g.AddLayer("b", graph.OpConv, graph.ConvShape(16, 4, 4, 4, 1, 1, 0), in)
	g.AddLayer("add", graph.OpEltwise, graph.EltwiseShape(16, 4, 4), a, bl)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := atom.Spec{
		a:  {Hp: 2, Wp: 4, Cop: 4}, // 8 atoms
		bl: {Hp: 8, Wp: 4, Cop: 4}, // 2 atoms
	}
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	return d, a, bl
}

func TestRule2SameDepthSiblings(t *testing.T) {
	d, a, bl := siblingsGraph(t)
	s, err := Build(d, Options{Engines: 5, Mode: Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	// With 5 engines and 8+2 same-depth atoms, some round must mix
	// layers a and b (rule 2 fills the gap left by a's remainder).
	mixed := false
	for _, r := range s.Rounds {
		seenA, seenB := false, false
		for _, id := range r.Atoms {
			switch d.Atoms[id].Layer {
			case a:
				seenA = true
			case bl:
				seenB = true
			}
		}
		if seenA && seenB {
			mixed = true
		}
	}
	if !mixed {
		t.Error("no round mixed same-depth siblings (rule 2 inert)")
	}
}

func TestDPUndoLogIntegrity(t *testing.T) {
	// Running DP twice over the same DAG must not corrupt shared state:
	// the second Build sees a fresh frontier and produces the identical
	// schedule (the lookahead's apply/rollback must be perfectly
	// balanced).
	d, _, _ := siblingsGraph(t)
	opt := Options{Engines: 3, Mode: DP, Lookahead: 4, MaxOptions: 5,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition}
	s1, err := Build(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumRounds() != s2.NumRounds() {
		t.Fatalf("rounds differ: %d vs %d", s1.NumRounds(), s2.NumRounds())
	}
	for i := range s1.Rounds {
		for j := range s1.Rounds[i].Atoms {
			if s1.Rounds[i].Atoms[j] != s2.Rounds[i].Atoms[j] {
				t.Fatalf("round %d differs", i)
			}
		}
	}
}

func TestFromRoundsValidation(t *testing.T) {
	d, a, _ := siblingsGraph(t)
	opt := Options{Engines: 4, EngineCfg: engine.Default(), Dataflow: engine.KCPartition}
	atoms := d.AtomsOf(0, a)

	cases := map[string][][]int{
		"empty round":       {{}},
		"over budget":       {atoms[:5]},
		"duplicate atom":    {{atoms[0]}, {atoms[0]}},
		"unknown atom":      {{999999}},
		"missing atoms":     {{atoms[0]}},
		"dependency broken": nil, // built below
	}
	for label, rounds := range cases {
		if label == "dependency broken" {
			// Schedule the eltwise before its producers.
			var addAtom int
			for _, at := range d.Atoms {
				if at.Task.Kind == graph.OpEltwise {
					addAtom = at.ID
				}
			}
			rounds = [][]int{{addAtom}}
			rest := []int{}
			for _, at := range d.Atoms {
				if at.ID != addAtom && at.Task.Kind != graph.OpInput {
					rest = append(rest, at.ID)
				}
			}
			for off := 0; off < len(rest); off += 4 {
				end := off + 4
				if end > len(rest) {
					end = len(rest)
				}
				rounds = append(rounds, rest[off:end])
			}
		}
		if _, err := FromRounds(d, rounds, opt); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestFromRoundsAcceptsValid(t *testing.T) {
	d, _, _ := siblingsGraph(t)
	s, err := Build(d, Options{Engines: 4, Mode: Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([][]int, len(s.Rounds))
	for i, r := range s.Rounds {
		rounds[i] = r.Atoms
	}
	s2, err := FromRounds(d, rounds, Options{Engines: 4,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	if s2.MakespanLB() != s.MakespanLB() {
		t.Errorf("round-tripped makespan %d != %d", s2.MakespanLB(), s.MakespanLB())
	}
}

// rebuildActiveDepth recomputes the rule-2 counters from first principles.
func (st *state) rebuildActiveDepth() []int {
	out := make([]int, len(st.activeDepth))
	for p, done := range st.traversed {
		if done && st.pending[p] > 0 {
			sample, layer := p/st.numLayers, p%st.numLayers
			out[sample*st.depthSpan+st.g.Layer(layer).Depth]++
		}
	}
	return out
}

// checkFrontier asserts the ready-list invariants pickWithPolicy relies
// on: every ready list is strictly ascending, live holds exactly the pairs
// with non-empty ready lists, and readyCount is the sum of list lengths.
func (st *state) checkFrontier(t *testing.T, label string) {
	t.Helper()
	total := 0
	for p := range st.ready {
		lst := st.ready[p].ids()
		for i := 1; i < len(lst); i++ {
			if lst[i-1] >= lst[i] {
				t.Fatalf("%s: ready list of pair %d not strictly ascending: %v", label, p, lst)
			}
		}
		total += len(lst)
		if live := st.liveIdx[p] >= 0; live != (len(lst) > 0) {
			t.Fatalf("%s: pair %d live=%v with %d ready atoms", label, p, live, len(lst))
		}
	}
	if total != st.readyCount {
		t.Fatalf("%s: readyCount = %d, lists hold %d", label, st.readyCount, total)
	}
	seen := make(map[int]bool, len(st.live))
	for slot, p := range st.live {
		if seen[p] || st.liveIdx[p] != slot || st.ready[p].len() == 0 {
			t.Fatalf("%s: live[%d] = pair %d (dup=%v, liveIdx=%d, ready=%d)",
				label, slot, p, seen[p], st.liveIdx[p], st.ready[p].len())
		}
		seen[p] = true
	}
}

func TestActiveDepthIncremental(t *testing.T) {
	// Property: after any interleaving of apply/rollback — here a full DP
	// build, whose lookahead nests them several levels deep — the
	// incrementally-maintained activeDepth counters must equal a
	// from-scratch rebuild, and the ready lists and live set must stay
	// consistent, at every Round boundary.
	for _, model := range []string{"tinyresnet", "tinybranch", "pnascell"} {
		d := dagFor(t, model, 2)
		opt := Options{Engines: 3, Mode: DP, Lookahead: 3, MaxOptions: 5,
			EngineCfg: engine.Default(), Dataflow: engine.KCPartition}
		st := newState(d, opt)
		st.checkFrontier(t, model+" initial")
		for st.remaining > 0 {
			comb := st.dpPick()
			if len(comb) == 0 {
				t.Fatalf("%s: deadlock with %d remaining", model, st.remaining)
			}
			st.apply(comb)
			want := st.rebuildActiveDepth()
			for k, v := range st.activeDepth {
				if v != want[k] {
					t.Fatalf("%s: activeDepth[%d] = %d, rebuild says %d", model, k, v, want[k])
				}
			}
			st.checkFrontier(t, model)
		}
		if len(st.live) != 0 || st.readyCount != 0 {
			t.Fatalf("%s: finished with %d live pairs, %d ready atoms", model, len(st.live), st.readyCount)
		}
	}
}
