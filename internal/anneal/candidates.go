// Package anneal implements the paper's Algorithm 1: simulated-annealing
// atomic tensor generation, which chooses per-layer atom sizes
// [h_p, w_p, c_p^o] such that (1) the spatially-unrolled dimensions are
// quantized to the PE array so each engine runs at high utilization, and
// (2) the execution cycles of all layers' atoms concentrate around one
// unified value, minimizing load imbalance between atoms co-scheduled in
// the same Round. A genetic-algorithm comparator (used by the paper's
// Fig. 5b) is provided for evaluation.
package anneal

import (
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// candidate is one feasible atom size for a layer, pre-priced.
type candidate struct {
	part   atom.Partition
	cycles int64   // engine cycles of one (full) tile
	util   float64 // PE utilization of one tile
	tiles  int     // atoms the partition induces on the layer
}

// deferredCand is a feasible atom size the surrogate filter priced but
// did not spend an exact evaluation on. The refinement pass after SA
// re-admits deferred candidates whose predicted cycles land near the
// final unified cycle, evaluating them exactly then (see surrogate.go).
type deferredCand struct {
	part  atom.Partition
	tiles int
	pred  int64 // surrogate-predicted cycles (never reported anywhere)
}

// layerCands holds a layer's candidate list sorted by cycles ascending,
// plus (in surrogate mode) the enumerated-but-unevaluated remainder.
type layerCands struct {
	layer    *graph.Layer
	cands    []candidate
	deferred []deferredCand
}

// pick returns the index of the best candidate for a target cycle count:
// among candidates within ±25% of the target, the one with the fewest
// output-channel tiles wins (every extra channel tile re-reads the whole
// input tensor once, multiplying NoC/DRAM traffic); ties and the
// no-candidate-in-window case fall back to nearest-cycles.
func (lc *layerCands) pick(target int64) int {
	c := lc.cands
	i := sort.Search(len(c), func(i int) bool { return c[i].cycles >= target })
	nearest := i
	if i == len(c) {
		nearest = len(c) - 1
	} else if i > 0 && target-c[i-1].cycles <= c[i].cycles-target {
		nearest = i - 1
	}
	lo, hi := target-target/4, target+target/4
	// The candidates are sorted by cycles, so the window is the index
	// range [jlo, jhi); scanning it in ascending order keeps every
	// tie-break of a full scan.
	jlo := sort.Search(len(c), func(j int) bool { return c[j].cycles >= lo })
	jhi := jlo + sort.Search(len(c)-jlo, func(j int) bool { return c[jlo+j].cycles > hi })
	// Within the window: keep near-peak PE utilization (target 1), then
	// minimize channel tiles (target 2: every extra channel tile
	// re-reads the whole input once), then nearest cycles.
	maxUtil := 0.0
	for j := jlo; j < jhi; j++ {
		if c[j].util > maxUtil {
			maxUtil = c[j].util
		}
	}
	best, bestTiles := -1, 0
	for j := jlo; j < jhi; j++ {
		if c[j].util < 0.9*maxUtil {
			continue
		}
		ct := channelTiles(lc.layer, c[j].part.Cop)
		if best < 0 || ct < bestTiles ||
			(ct == bestTiles && absDiff(c[j].cycles, target) < absDiff(c[best].cycles, target)) {
			best, bestTiles = j, ct
		}
	}
	if best >= 0 {
		return best
	}
	return nearest
}

func channelTiles(l *graph.Layer, cop int) int {
	if cop <= 0 {
		return 1
	}
	return (l.Shape.Co + cop - 1) / cop
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// genCandidates enumerates feasible atom sizes for one compute layer.
// Spatially-unrolled dims are quantized to the PE array per the dataflow
// (paper Sec. IV-A: sizes are [c0, c1, c2*PEx, c3*PEy] under KC-P);
// candidates whose working set cannot fit in the usable buffer fraction
// are discarded, and tile counts are capped to keep the atomic DAG
// tractable.
//
// With Options.Surrogate installed and ready, feasible partitions are
// first priced by the learned model and exact Evaluate calls are spent
// only on the selected survivors; the remainder comes back as the
// deferred list for the post-search refinement pass. Without a surrogate
// (or before it is ready) every feasible partition is evaluated exactly
// and deferred is nil.
func genCandidates(l *graph.Layer, cfg engine.Config, df engine.Dataflow, opt Options, orc cost.Oracle) ([]candidate, []deferredCand) {
	s := l.Shape
	var hs, ws, cs []int
	// Channel extents always quantize to at least the column width even
	// when channels are temporal (YX-P): finer slices cannot raise
	// utilization, but they shred the atomic DAG — every dense consumer
	// depends on all of a layer's channel tiles, so Cop=1 atoms explode
	// the edge count quadratically.
	cq := cfg.PEy
	switch {
	case l.Kind == graph.OpDepthwiseConv:
		// No cross-channel reuse: channel dim quantizes to PEy under
		// KC-P (kernel occupies the rows), spatial dims under YX-P.
		if df == engine.KCPartition {
			hs, ws = splitSizes(s.Ho, 1, opt.maxSplits()), splitSizes(s.Wo, 1, opt.maxSplits())
		} else {
			hs, ws = splitSizes(s.Ho, cfg.PEx, opt.maxSplits()), splitSizes(s.Wo, cfg.PEy, opt.maxSplits())
		}
		cs = splitSizes(s.Co, cq, opt.maxSplits())
	case df == engine.KCPartition:
		hs, ws = splitSizes(s.Ho, 1, opt.maxSplits()), splitSizes(s.Wo, 1, opt.maxSplits())
		cs = splitSizes(s.Co, cq, opt.maxSplits())
	case df == engine.FlexPartition:
		// Sizes [c0, c1*PEz, c2*PEx, c3*PEy] (paper Sec. VI-A): width
		// quantizes to the third array dimension.
		hs, ws = splitSizes(s.Ho, 1, opt.maxSplits()), splitSizes(s.Wo, cfg.PEzOf(), opt.maxSplits())
		cs = splitSizes(s.Co, cq, opt.maxSplits())
	default: // YXPartition
		hs, ws = splitSizes(s.Ho, cfg.PEx, opt.maxSplits()), splitSizes(s.Wo, cfg.PEy, opt.maxSplits())
		cs = splitSizes(s.Co, cq, opt.maxSplits())
	}
	budget := int64(float64(cfg.BufferBytes) * opt.bufferFraction())
	// Weights stream through the buffer in per-pass windows (the array
	// consumes PEx x PEy values per kernel position), so the residency
	// requirement is a double-buffered window, not the full slice — full
	// slices are cached opportunistically by the buffer manager when room
	// remains (Algorithm 3 treats them as evictable entries).
	weightWindow := int64(4 * cfg.PEx * cfg.PEy * s.Kh * s.Kw)
	var pend []pendingCand
	for _, hp := range hs {
		for _, wp := range ws {
			for _, cp := range cs {
				p := atom.Partition{Hp: hp, Wp: wp, Cop: cp}
				tiles := p.Tiles(l)
				if tiles > opt.maxTiles() {
					continue
				}
				t := engine.Task{Kind: l.Kind, Hp: hp, Wp: wp, Ci: s.Ci, Cop: cp,
					Kh: s.Kh, Kw: s.Kw, Stride: s.Stride}
				if l.Kind == graph.OpDepthwiseConv {
					t.Ci = 1
				}
				w := t.WeightBytes()
				if w > weightWindow {
					w = weightWindow
				}
				if inputWindow(t)+t.OutputBytes()+w > budget {
					continue
				}
				pend = append(pend, pendingCand{part: p, task: t, tiles: tiles})
			}
		}
	}
	// Warm-started searches narrow the enumeration to a window around the
	// prior solution's partition before any oracle evaluation is spent
	// (no-op without Options.WarmStart — see warm.go).
	pend = warmPrune(l, opt, pend)
	cands, deferred := evaluatePending(pend, cfg, df, opt, orc)
	// Prefer atoms whose weight slice can actually be cached in an
	// engine's buffer (Algorithm 3 stores weights opportunistically, but
	// a slice above ~3/4 of the buffer always streams from DRAM and is
	// re-fetched by every atom that needs it). Keep uncacheable sizes
	// only when no cacheable candidate exists (e.g. very wide FC layers).
	if len(cands) > 0 {
		cacheable := cands[:0]
		limit := int64(cfg.BufferBytes) * 3 / 4
		for _, c := range cands {
			wb := int64(s.Ci) * int64(c.part.Cop) * int64(s.Kh) * int64(s.Kw)
			if l.Kind == graph.OpDepthwiseConv {
				wb = int64(c.part.Cop) * int64(s.Kh) * int64(s.Kw)
			}
			if wb <= limit {
				cacheable = append(cacheable, c)
			}
		}
		if len(cacheable) > 0 {
			cands = cacheable
		}
	}
	// Target (1) of Sec. IV-A — high PE utilization — precedes balance:
	// drop candidates far below the layer's best achievable utilization
	// (tiny tiles of fill/drain-bound layers would otherwise be selected
	// as "closest to the unified cycle" while wasting the array).
	if len(cands) > 0 {
		maxU := 0.0
		for _, c := range cands {
			if c.util > maxU {
				maxU = c.util
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if c.util >= 0.6*maxU {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if len(cands) == 0 {
		// Nothing fits the buffer: fall back to one array-quantized tile
		// per spatial position so the pipeline still produces a
		// (memory-thrashing) schedule with a bounded atom count.
		p := atom.Partition{Hp: min(s.Ho, cfg.PEx), Wp: min(s.Wo, cfg.PEy), Cop: s.Co}
		t := engine.Task{Kind: l.Kind, Hp: p.Hp, Wp: p.Wp, Ci: s.Ci, Cop: p.Cop,
			Kh: s.Kh, Kw: s.Kw, Stride: s.Stride}
		if l.Kind == graph.OpDepthwiseConv {
			t.Ci = 1
		}
		c := orc.Evaluate(cfg, df, t)
		cands = append(cands, candidate{part: p, cycles: c.Cycles, util: c.Utilization, tiles: p.Tiles(l)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cycles < cands[j].cycles })
	return cands, deferred
}

// splitSizes enumerates tile extents for a dimension of size n, quantized
// up to multiples of q (capped at n), using the distinct values of
// ceil(n/k). The count is capped at maxSplits, biased toward coarse tiles
// (few, large atoms) plus the finest few.
func splitSizes(n, q, maxSplits int) []int {
	if q <= 0 {
		q = 1
	}
	seen := make(map[int]bool)
	var sizes []int
	add := func(sz int) {
		if sz < 1 {
			sz = 1
		}
		// Quantize up to a multiple of q, capped at n.
		if q > 1 {
			sz = ((sz + q - 1) / q) * q
		}
		if sz > n {
			sz = n
		}
		if !seen[sz] {
			seen[sz] = true
			sizes = append(sizes, sz)
		}
	}
	// Distinct ceil(n/k) values: k and n/k enumerate them all.
	for k := 1; k*k <= n; k++ {
		add((n + k - 1) / k)
		add(k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > maxSplits {
		// Keep the coarsest maxSplits-2 plus the two finest.
		kept := append([]int(nil), sizes[:maxSplits-2]...)
		kept = append(kept, sizes[len(sizes)-2], sizes[len(sizes)-1])
		sizes = kept
	}
	return sizes
}

// inputWindow returns the input residency an atom really needs: input
// channels are consumed in temporal chunks (like weights), so only a
// double-buffered 32-channel window of the input tile must be resident;
// the full slab streams through. Element-wise and pooling tasks consume
// their inputs once, streaming fully.
func inputWindow(t engine.Task) int64 {
	in := t.InputBytes()
	switch t.Kind {
	case graph.OpConv, graph.OpFC:
		if t.Ci > 32 {
			return in / int64(t.Ci) * 32
		}
	case graph.OpDepthwiseConv:
		if t.Cop > 32 {
			return in / int64(t.Cop) * 32
		}
	}
	return in
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
