package schedule

import (
	"math/rand"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
)

// leafCostRef is the depth-0 lookahead by definition: apply comb, read
// the packing lower bound of what is left (0 when nothing is), roll back.
// leafCost must equal it without touching the frontier.
func (st *state) leafCostRef(comb []int) int64 {
	st.apply(comb)
	defer st.rollback()
	if st.remaining == 0 {
		return 0
	}
	return st.totalWork / int64(st.opt.Engines)
}

// readyAtoms returns every ready atom, in pair then ID order.
func (st *state) readyAtoms() []int {
	var out []int
	for _, p := range st.live {
		out = append(out, st.ready[p].ids()...)
	}
	return out
}

// TestLookaheadLeafClosedForm checks the closed-form depth-0 lookahead
// against the apply/rollback definition at random scheduler states: the
// frontier follows DP picks mixed with random legal Rounds, and at every
// Round boundary each DP option and random subsets of the ready atoms are
// priced both ways, including combinations that finish the DAG.
func TestLookaheadLeafClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	finishing := 0
	for _, tc := range []struct {
		model   string
		batch   int
		engines int
	}{
		{"tinyresnet", 2, 3},
		{"tinybranch", 2, 5},
		{"pnascell", 1, 8},
		{"resnet50", 1, 64},
	} {
		d := dagFor(t, tc.model, tc.batch)
		st := newState(d, Options{Engines: tc.engines, Mode: DP,
			EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
		check := func(comb []int) {
			remaining, work := st.remaining, st.totalWork
			got := st.leafCost(comb)
			if st.remaining != remaining || st.totalWork != work {
				t.Fatalf("%s: leafCost changed the frontier", tc.model)
			}
			if want := st.leafCostRef(comb); got != want {
				t.Fatalf("%s: leafCost(%v) = %d, apply/rollback gives %d (remaining %d)",
					tc.model, comb, got, want, st.remaining)
			}
			if len(comb) == st.remaining {
				finishing++
			}
		}
		for st.remaining > 0 {
			for _, comb := range st.options() {
				check(comb)
			}
			ready := st.readyAtoms()
			for k := 0; k < 4; k++ {
				rng.Shuffle(len(ready), func(i, j int) { ready[i], ready[j] = ready[j], ready[i] })
				check(append([]int(nil), ready[:1+rng.Intn(min(len(ready), tc.engines))]...))
			}
			if len(ready) == st.remaining {
				check(ready)
			}
			comb := st.dpPick()
			if rng.Intn(3) == 0 {
				comb = ready[:1+rng.Intn(min(len(ready), tc.engines))]
			}
			st.apply(append([]int(nil), comb...))
			st.undoLog = st.undoLog[:0]
		}
	}
	if finishing == 0 {
		t.Fatal("no combination finished the DAG")
	}
}
