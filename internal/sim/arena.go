package sim

import (
	"cmp"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
)

// arena is the per-Run scratch state of the simulator's hot loop. All
// link and engine state lives in dense slices indexed by the mesh's link
// IDs and engine indices, and is invalidated by bumping an epoch stamp
// instead of clearing or reallocating, so simulating a Round's flows
// allocates nothing after the first Round.
//
// Two stamp counters partition the state by lifetime:
//
//   - roundStamp guards state that resets every Round: linkFree (when a
//     link finishes its last tensor), ready (per-engine NoC arrival) and
//     dramReady (per-engine DRAM arrival).
//   - groupStamp guards state that resets every multicast group:
//     linkStart (when a link begins forwarding the group's tensor).
//
// A slot is live only when its stamp equals the current counter; stale
// slots read as absent. Both counters are monotonically increasing
// int64s, so stamps never collide across Rounds or groups. Determinism
// is preserved by construction: flows are sorted by a total order
// (Src, |key|, key, Dst) before link claiming, which is exactly the
// order the map-based reference path iterates in.
type arena struct {
	mesh *noc.Mesh

	// Link state, indexed by link ID (see noc.RouteIDs).
	linkFree   []int64
	freeStamp  []int64
	linkStart  []int64
	startStamp []int64

	// Engine state, indexed by engine.
	ready      []int64
	readyStamp []int64
	dramReady  []int64
	dramStamp  []int64

	roundStamp int64
	groupStamp int64

	// Stamp values when the current run acquired this arena — pooled
	// arenas keep counting monotonically, so per-run epoch metrics are
	// the deltas against these.
	runRound0 int64
	runGroup0 int64

	sorter flowSorter // sort scratch for simulateFlows

	// linkTraffic, when non-nil, accumulates bytes per link ID across the
	// whole Run (metrics scratch owned by simMetrics; nil when disabled).
	linkTraffic []int64
}

// keyedFlow is one entry of the deterministic link-claim order: the
// flow's index plus its group key. okey encodes (|key|, key) in one word
// — |key|<<1 with the low bit set for positive keys — so walkFlows finds
// group boundaries with two integer compares.
type keyedFlow struct {
	okey     uint64
	src, dst int32
	idx      int32
}

// newArena sizes the scratch for the mesh.
func newArena(mesh *noc.Mesh) *arena {
	nl := mesh.NumLinks()
	ne := mesh.Engines()
	return &arena{
		mesh:       mesh,
		linkFree:   make([]int64, nl),
		freeStamp:  make([]int64, nl),
		linkStart:  make([]int64, nl),
		startStamp: make([]int64, nl),
		ready:      make([]int64, ne),
		readyStamp: make([]int64, ne),
		dramReady:  make([]int64, ne),
		dramStamp:  make([]int64, ne),
	}
}

// reset re-targets a pooled arena at a new mesh. The pool key guarantees
// the new mesh has the same link and engine counts, so the dense slices
// keep their sizes, and the epoch stamps are monotonic — stale slots from
// the previous run read as absent without any clearing.
func (a *arena) reset(mesh *noc.Mesh) {
	a.mesh = mesh
	a.linkTraffic = nil
	a.runRound0 = a.roundStamp
	a.runGroup0 = a.groupStamp
}

// beginRound invalidates all per-Round state.
func (a *arena) beginRound() { a.roundStamp++ }

// setDRAMReady records engine e's DRAM arrival time for this Round.
func (a *arena) setDRAMReady(e int, at int64) {
	a.dramReady[e] = at
	a.dramStamp[e] = a.roundStamp
}

// getDRAMReady returns engine e's DRAM arrival this Round, if any.
func (a *arena) getDRAMReady(e int) (int64, bool) {
	return a.dramReady[e], a.dramStamp[e] == a.roundStamp
}

// setNoCReady records engine e's NoC arrival time (reference-path shim).
func (a *arena) setNoCReady(e int, at int64) {
	a.ready[e] = at
	a.readyStamp[e] = a.roundStamp
}

// getNoCReady returns engine e's NoC arrival this Round, if any.
func (a *arena) getNoCReady(e int) (int64, bool) {
	return a.ready[e], a.readyStamp[e] == a.roundStamp
}

// flowSorter builds the deterministic link-claim order of a Round's
// flows without comparison-sorting them. A Round carries thousands of
// flows but only tens to hundreds of multicast groups, so:
//
//  1. each flow finds its (Src, GroupKey) group through a key table —
//     dense and indexed by Tag for ifmap tags (atom ID + 1), a small
//     open-addressing hash for weight tags and unicast keys — whose
//     slots chain the groups sharing a key from different sources;
//  2. only the groups are sorted, by (Src, |key|, key);
//  3. two stable counting passes order the flows by Dst, then by group.
//
// The result is exactly the (Src, |key|, key, Dst) order the map-based
// reference path iterates in. All tables are epoch-stamped, so a sort
// clears nothing and, once the tables reach their high-water sizes,
// allocates nothing. The order is a pure function of the flow list, so
// the pipeline runs this in the prep stage.
type flowSorter struct {
	epoch uint32

	// Dense key table: tagHead[tag] is the newest group keyed tag when
	// tagStamp[tag] == epoch.
	tagStamp []uint32
	tagHead  []int32

	// Hash key table for every other key, sized a power of two of at
	// least twice the Round's flow count.
	hashKey   []int64
	hashStamp []uint32
	hashHead  []int32

	groups []flowGroup
	gid    []int32 // flow index -> group
	order  []int32 // groups by (Src, |key|, key)
	dcnt   []int32 // per-Dst counting-sort offsets
	byDst  []int32 // flow indices in (Dst, emission) order
}

// flowGroup is one (Src, GroupKey) multicast group of a Round.
type flowGroup struct {
	okey uint64
	src  int32
	next int32 // next group with the same key (another source), -1 at the end
	size int32 // flows in the group
	pos  int32 // next output position of the group's flows
}

// maxDenseTag bounds the dense key table. Ifmap tags are atom IDs + 1,
// far below it; larger positive keys (weight tags) use the hash table.
const maxDenseTag = 1 << 24

// okeyOf encodes a group key as |key|<<1 | (key > 0).
func okeyOf(k int64) uint64 {
	if k < 0 {
		return uint64(-k) << 1
	}
	return uint64(k)<<1 | 1
}

// sort appends flows' link-claim order to out[:0] and returns it.
func (fs *flowSorter) sort(flows []buffer.Flow, out []keyedFlow) []keyedFlow {
	out = out[:0]
	n := len(flows)
	if n == 0 {
		return out
	}
	fs.nextEpoch(n)
	groups := fs.groups[:0]
	gid := slices.Grow(fs.gid[:0], n)[:n]
	maxDst := 0
	for i, f := range flows {
		k := f.GroupKey()
		head := fs.head(k)
		src := int32(f.Src)
		g := *head
		for g >= 0 && groups[g].src != src {
			g = groups[g].next
		}
		if g < 0 {
			g = int32(len(groups))
			groups = append(groups, flowGroup{okey: okeyOf(k), src: src, next: *head})
			*head = g
		}
		groups[g].size++
		gid[i] = g
		maxDst = max(maxDst, f.Dst)
	}
	fs.groups, fs.gid = groups, gid

	order := fs.order[:0]
	for g := range groups {
		order = append(order, int32(g))
	}
	slices.SortFunc(order, func(a, b int32) int {
		ga, gb := &groups[a], &groups[b]
		if ga.src != gb.src {
			return cmp.Compare(ga.src, gb.src)
		}
		return cmp.Compare(ga.okey, gb.okey)
	})
	fs.order = order
	pos := int32(0)
	for _, g := range order {
		groups[g].pos = pos
		pos += groups[g].size
	}

	// Stable counting pass by Dst...
	dcnt := slices.Grow(fs.dcnt[:0], maxDst+2)[:maxDst+2]
	clear(dcnt)
	for _, f := range flows {
		dcnt[f.Dst+1]++
	}
	for d := 1; d < len(dcnt); d++ {
		dcnt[d] += dcnt[d-1]
	}
	byDst := slices.Grow(fs.byDst[:0], n)[:n]
	for i, f := range flows {
		byDst[dcnt[f.Dst]] = int32(i)
		dcnt[f.Dst]++
	}
	fs.dcnt, fs.byDst = dcnt, byDst
	// ...then by group rank: each group's flows land in Dst order.
	out = slices.Grow(out, n)[:n]
	for _, i := range byDst {
		g := &groups[gid[i]]
		f := flows[i]
		out[g.pos] = keyedFlow{okey: g.okey, src: g.src, dst: int32(f.Dst), idx: i}
		g.pos++
	}
	return out
}

// nextEpoch starts a sort of n flows: it bumps the epoch (clearing the
// stamps on wrap-around) and sizes the hash table for n keys.
func (fs *flowSorter) nextEpoch(n int) {
	fs.epoch++
	if fs.epoch == 0 {
		clear(fs.tagStamp)
		clear(fs.hashStamp)
		fs.epoch = 1
	}
	if size := len(fs.hashKey); size < 2*n {
		for size = max(size, 64); size < 2*n; size *= 2 {
		}
		fs.hashKey = make([]int64, size)
		fs.hashStamp = make([]uint32, size)
		fs.hashHead = make([]int32, size)
	}
}

// head returns the key table slot holding the newest group keyed k,
// initialized to -1 (no group) the first time k is seen this epoch.
func (fs *flowSorter) head(k int64) *int32 {
	if k > 0 && k < maxDenseTag {
		if int(k) >= len(fs.tagHead) {
			size := max(int(k)+1, 2*len(fs.tagHead))
			fs.tagStamp = slices.Grow(fs.tagStamp, size-len(fs.tagStamp))[:size]
			fs.tagHead = slices.Grow(fs.tagHead, size-len(fs.tagHead))[:size]
		}
		if fs.tagStamp[k] != fs.epoch {
			fs.tagStamp[k], fs.tagHead[k] = fs.epoch, -1
		}
		return &fs.tagHead[k]
	}
	mask := uint64(len(fs.hashKey) - 1)
	for h := (uint64(k) * 0x9e3779b97f4a7c15) >> 32 & mask; ; h = (h + 1) & mask {
		switch {
		case fs.hashStamp[h] != fs.epoch:
			fs.hashStamp[h], fs.hashKey[h], fs.hashHead[h] = fs.epoch, k, -1
			return &fs.hashHead[h]
		case fs.hashKey[h] == k:
			return &fs.hashHead[h]
		}
	}
}

// simulateFlows sorts and walks in one call — the single-stage entry
// point used by tests; the pipeline calls flowSorter.sort and walkFlows
// from their respective stages.
func (a *arena) simulateFlows(flows []buffer.Flow, start int64) int64 {
	return a.walkFlows(flows, a.sorter.sort(flows, nil), start)
}

// walkFlows is the dense counterpart of simulateFlowsReference: it
// serializes the Round's flows on shared links in the order kf (from
// sortFlows) and records per-destination arrival times in a.ready,
// returning the Round's byte-hop volume. beginRound must have been
// called.
func (a *arena) walkFlows(flows []buffer.Flow, kf []keyedFlow, start int64) int64 {
	hop := a.mesh.HopCycles
	linkBytes := int64(a.mesh.LinkBytes)
	var byteHops int64
	for gi := 0; gi < len(kf); {
		gj := gi + 1
		for gj < len(kf) && kf[gj].src == kf[gi].src && kf[gj].okey == kf[gi].okey {
			gj++
		}
		group := kf[gi:gj]
		bytes := flows[group[0].idx].Bytes
		for _, e := range group[1:] {
			if b := flows[e.idx].Bytes; b > bytes {
				bytes = b
			}
		}
		ser := (bytes + linkBytes - 1) / linkBytes
		// Walk each destination's route; a link is claimed once per tree
		// (switch-level replication). A link cannot start forwarding
		// before the stream's head reaches it from the upstream link
		// (cut-through), nor while a previous tensor occupies it.
		a.groupStamp++
		treeLinks := int64(0)
		for _, e := range group {
			head := start
			lastStart := start
			route := a.mesh.RouteIDs(int(e.src), int(e.dst))
			for _, id := range route {
				var s int64
				if a.startStamp[id] == a.groupStamp {
					s = a.linkStart[id]
				} else {
					s = head
					if a.freeStamp[id] == a.roundStamp && a.linkFree[id] > s {
						s = a.linkFree[id]
					}
					a.linkStart[id] = s
					a.startStamp[id] = a.groupStamp
					a.linkFree[id] = s + ser
					a.freeStamp[id] = a.roundStamp
					treeLinks++
					if a.linkTraffic != nil {
						a.linkTraffic[id] += bytes
					}
				}
				head = s + hop
				lastStart = s
			}
			arrive := start
			if len(route) > 0 {
				arrive = lastStart + ser + hop
			}
			if r, ok := a.getNoCReady(int(e.dst)); !ok || arrive > r {
				a.setNoCReady(int(e.dst), arrive)
			}
		}
		byteHops += bytes * treeLinks
		gi = gj
	}
	return byteHops
}
