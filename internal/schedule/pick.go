package schedule

import "slices"

// greedyPick selects up to N ready atoms following the paper's four
// priority rules (Sec. IV-B):
//
//  1. remaining atoms of already-traversed layers (their ifmaps/weights are
//     on-chip);
//  2. atoms of not-yet-traversed layers at the same depth as an in-flight
//     traversed layer (they share common inputs, releasing buffer early);
//  3. atoms of other ready (dependent) layers in the current sample;
//  4. atoms of later samples, entered only when the current sample cannot
//     fill all engines.
func (st *state) greedyPick() []int {
	return st.pickWithPolicy(policy{})
}

// policy perturbs the greedy decision to generate DP alternatives.
type policy struct {
	stayInSample bool // never apply rule 4
	longestFirst bool // within a rule, prefer atoms with more cycles
	onlyRule1    bool // do not start new layers this Round
	deferRule2   bool // swap the order of rules 2 and 3
}

// A candidate is one (sample, layer) pair with ready atoms, packed as
// rule<<48 | sample<<24 | pos so that ascending keys follow the
// (rule, sample, topological position) priority order. pos is unique per
// layer and (sample, layer) unique per candidate, so the order is total
// and the unstable sort deterministic; pos maps back to the layer through
// the graph's topological order.
const candFieldBits = 24

func candKey(rule, sample, pos int) uint64 {
	return uint64(rule)<<(2*candFieldBits) | uint64(sample)<<candFieldBits | uint64(pos)
}

func (st *state) candPair(k uint64) (rule, pair int) {
	const mask = 1<<candFieldBits - 1
	sample, pos := int(k>>candFieldBits&mask), int(k&mask)
	return int(k >> (2 * candFieldBits)), st.pair(sample, st.topo[pos])
}

// pickWithPolicy is the shared selection engine. It walks only the live
// pairs (those with ready atoms), and reads the rule-2 reference set
// (depths of traversed-but-unfinished layers in the current sample) from
// the incrementally-maintained state.activeDepth counters — the DP
// lookahead calls this for every option at every recursion level, so
// both keep O(every pair ever touched) walks out of the scheduler's
// innermost loop.
func (st *state) pickWithPolicy(p policy) []int {
	n := st.opt.Engines
	pick := make([]int, 0, n)

	cands := st.cands[:0]
	for _, pr := range st.live {
		sample, layer := pr/st.numLayers, pr%st.numLayers
		var rule int
		switch {
		case sample == st.curSample && st.traversed[pr]:
			rule = 1
		case sample == st.curSample && st.activeDepth[sample*st.depthSpan+st.layerDepth[layer]] > 0:
			rule = 2
		case sample == st.curSample:
			rule = 3
		default:
			rule = 4
		}
		if p.deferRule2 && rule == 2 {
			rule = 3
		} else if p.deferRule2 && rule == 3 {
			rule = 2
		}
		cands = append(cands, candKey(rule, sample, st.layerPos[layer]))
	}
	st.cands = cands
	slices.Sort(cands)

	for _, k := range cands {
		if len(pick) >= n {
			break
		}
		rule, pr := st.candPair(k)
		if p.onlyRule1 && rule > 1 && len(pick) > 0 {
			break
		}
		if p.stayInSample && rule == 4 {
			break
		}
		// Ready lists are kept sorted by ID, the default order.
		lst := st.ready[pr].ids()
		if p.longestFirst {
			lst = append(st.byCost[:0], lst...)
			slices.SortFunc(lst, func(i, j int) int {
				ci, cj := st.cycles[i], st.cycles[j]
				if ci != cj {
					if ci > cj {
						return -1
					}
					return 1
				}
				return i - j
			})
			st.byCost = lst
		}
		pick = append(pick, lst[:min(len(lst), n-len(pick))]...)
	}
	return pick
}

// dpPick evaluates up to MaxOptions priority-pruned combinations with
// bounded-lookahead recursion (the DP(G') of Algorithm 2) and returns the
// combination with the minimum total estimated cost.
func (st *state) dpPick() []int {
	options := st.options()
	if len(options) == 1 {
		return options[0]
	}
	bestIdx, bestCost := 0, int64(-1)
	for i, comb := range options {
		cost := st.combCost(comb) + st.lookaheadCost(comb, st.opt.lookahead()-1)
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return options[bestIdx]
}

// policies are the option generators of one Round, in priority order.
var policies = []policy{
	{},                   // pure priority rules
	{longestFirst: true}, // better Round packing of unequal atoms
	{stayInSample: true}, // lower latency for the current sample
	{onlyRule1: true},    // drain in-flight layers before widening
	{deferRule2: true},   // dependent layers before siblings
}

// options generates the pruned combination set for the current Round,
// dropping combinations that select the same atom set as an earlier one.
func (st *state) options() [][]int {
	maxOpts := st.opt.maxOptions()
	var out [][]int
	sorted := st.sorted[:0] // sorted copies of out's combinations, back to back
	for _, p := range policies {
		if len(out) >= maxOpts {
			break
		}
		comb := st.pickWithPolicy(p)
		if len(comb) == 0 {
			continue
		}
		start := len(sorted)
		sorted = append(sorted, comb...)
		cur := sorted[start:]
		slices.Sort(cur)
		dup, off := false, 0
		for _, o := range out {
			if slices.Equal(sorted[off:off+len(o)], cur) {
				dup = true
				break
			}
			off += len(o)
		}
		if dup {
			sorted = sorted[:start]
			continue
		}
		out = append(out, comb)
	}
	st.sorted = sorted
	return out
}

// combCost prices one Round: the engines synchronize on the slowest atom.
func (st *state) combCost(comb []int) int64 {
	var worst int64
	for _, id := range comb {
		if c := st.cycles[id]; c > worst {
			worst = c
		}
	}
	return worst
}

// lookaheadCost recursively schedules `depth` more Rounds greedily after
// applying comb, then closes with the packing lower bound
// remainingWork / N — the DP(G') estimate for the un-traversed sub-DAG.
func (st *state) lookaheadCost(comb []int, depth int) int64 {
	st.apply(comb)
	var cost int64
	if st.remaining == 0 {
		cost = 0
	} else if depth <= 0 {
		cost = st.totalWork / int64(st.opt.Engines)
	} else {
		options := st.options()
		best := int64(-1)
		for _, next := range options {
			c := st.combCost(next) + st.lookaheadCost(next, depth-1)
			if best < 0 || c < best {
				best = c
			}
		}
		if best < 0 {
			best = st.totalWork / int64(st.opt.Engines)
		}
		cost = best
	}
	st.rollback()
	return cost
}
