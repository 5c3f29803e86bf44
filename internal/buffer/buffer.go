// Package buffer implements the paper's distributed on-chip buffering
// strategy (Sec. IV-C, Algorithm 3). Each engine's global buffer holds
// produced atom outputs (ofmaps) and weight slices. When storing a new
// tensor overflows the buffer, the resident entry with the largest
// *invalid occupation* — (earliest reuse Round − current Round) × tensor
// size — is written back to external memory; entries with no remaining
// consumer are released without write-back.
//
// Because DNN inference is static, the manager runs at compile time,
// replaying the schedule Round by Round and emitting the exact DRAM/NoC/
// SRAM traffic of each Round for the simulator and the energy model.
package buffer

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// wkey identifies a weight slice: a layer and output-channel range
// (weights are shared across samples and spatial tiles).
type wkey struct {
	layer  int
	c0, c1 int
}

// tag packs the key into the non-zero multicast tag of a Flow. Weight
// tags live in a namespace disjoint from ifmap (atom-ID) tags.
func (k wkey) tag() int64 {
	return 1<<60 | int64(k.layer)<<40 | int64(k.c0)<<20 | int64(k.c1)
}

// Flow is one inter-engine tensor movement within a Round. Flows sharing
// a non-zero Tag and the same Src carry the same tensor (a weight slice
// broadcast): the NoC delivers them as one multicast tree, serializing the
// bytes once per tree link instead of once per destination.
type Flow struct {
	Src, Dst int
	Bytes    int64
	Tag      int64
}

// GroupKey returns the multicast-group key of the flow within its (Src)
// namespace: tagged flows share their Tag (one tree per tensor), while
// unicast flows get a unique negative key per destination so each forms
// its own group. The NoC simulator sorts flows by (Src, |key|, key, Dst)
// and treats equal (Src, key) runs as one multicast tree.
func (f Flow) GroupKey() int64 {
	if f.Tag != 0 {
		return f.Tag
	}
	return -int64(f.Dst) - 1
}

// Placement resolves an atom to the engine that runs it this Round, or
// -1 when the atom is not placed. *mapping.Result satisfies it; tests and
// baselines can use a PlacementMap.
type Placement interface {
	Engine(atomID int) int
}

// PlacementMap adapts a plain atom→engine map to Placement.
type PlacementMap map[int]int

// Engine implements Placement; absent atoms report -1.
func (p PlacementMap) Engine(id int) int {
	e, ok := p[id]
	if !ok {
		return -1
	}
	return e
}

// RoundIO is the data movement of one Round, per engine where relevant.
type RoundIO struct {
	DRAMReadBytes  []int64 // per engine: weights + off-chip input fetches
	DRAMWriteBytes []int64 // per engine: evictions + unbufferable outputs
	SRAMReadBytes  []int64
	SRAMWriteBytes []int64
	Flows          []Flow // on-chip transfers between engines

	// Reuse accounting for Table II.
	InputBytesTotal  int64 // all input tensor bytes consumed this Round
	InputBytesOnChip int64 // the subset served from distributed buffers
}

// reset prepares io for a new Round of `engines` engines, reusing its
// per-engine slices and Flows capacity.
func (io *RoundIO) reset(engines int) {
	for _, s := range []*[]int64{
		&io.DRAMReadBytes, &io.DRAMWriteBytes, &io.SRAMReadBytes, &io.SRAMWriteBytes,
	} {
		if cap(*s) >= engines {
			*s = (*s)[:engines]
			for i := range *s {
				(*s)[i] = 0
			}
		} else {
			*s = make([]int64, engines)
		}
	}
	io.Flows = io.Flows[:0]
	io.InputBytesTotal, io.InputBytesOnChip = 0, 0
}

// Manager replays a schedule against the distributed buffers.
//
// All replay state is dense. Reset numbers the DAG's weight slices
// 0..S-1 in (layer, c0, c1) order, so "smallest slice ID" is Algorithm 3's
// smallest-key tie-break; a slice's holder set is a bitset of
// ⌈engines/64⌉ words; each engine's resident outputs and weight slices
// are plain slices. No array is sized slices × engines, and Reset reuses
// every array up to its high-water size, so a pooled Manager stops
// allocating once it has replayed its largest DAG.
type Manager struct {
	dag      *atom.DAG
	sched    *schedule.Schedule
	engines  int
	capacity int64

	resident []int   // atom ID -> engine buffering its output, -1 if off-chip/absent
	written  []bool  // atom ID -> a copy exists in DRAM
	used     []int64 // per engine: resident bytes
	round    int

	// Consumer Rounds per atom (Algorithm 3's t_next search), ascending:
	// consRound[consOff[id]:consOff[id+1]].
	consOff   []int32
	consRound []int32

	// Weight slices: wid maps an atom to its slice (-1 when it needs no
	// weights) and wRound[wOff[w]:wOff[w+1]] lists the Rounds using slice
	// w, ascending.
	wid    []int32
	wtag   []int64 // slice ID -> multicast Flow tag
	wOff   []int32
	wRound []int32

	words    int      // holder-set words per slice: ⌈engines/64⌉
	holders  []uint64 // slice w's engines: holders[w*words : (w+1)*words]
	nholders []int32  // slice w -> number of engines caching it

	// Streamed (uncacheable) slices broadcast within one Round:
	// streamSrc[w] is the engine that read slice w from DRAM this Round
	// when streamStamp[w] == stamp, which every Round bumps.
	streamStamp []int64
	streamSrc   []int32
	stamp       int64

	outs   [][]outEntry // per engine: resident outputs, unordered
	outPos []int32      // atom ID -> index in outs[resident[id]]
	wts    [][]wEntry   // per engine: resident weight slices, unordered

	evictions int64
	highWater int64 // largest bytes any engine's buffer ever held

	// Working arrays of numberSlices, kept for reuse.
	layerOff []int32
	byLayer  []chanAtom
}

// outEntry is a resident atom output.
type outEntry struct {
	atom  int32
	bytes int64
}

// wEntry is a resident weight slice.
type wEntry struct {
	slice int32
	bytes int64
}

// chanAtom is one weighted atom's channel range, bucketed by layer while
// Reset numbers the weight slices.
type chanAtom struct {
	c0, c1 int32
	atom   int32
}

// New builds a Manager for the DAG and schedule on `engines` buffers of
// capacityBytes each.
func New(d *atom.DAG, s *schedule.Schedule, engines int, capacityBytes int64) (*Manager, error) {
	m := &Manager{}
	if err := m.Reset(d, s, engines, capacityBytes); err != nil {
		return nil, err
	}
	return m, nil
}

// grow returns buf resized to n, reusing its capacity. Reused elements
// keep their old values.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Reset re-targets a Manager at a (possibly different) DAG and schedule,
// reusing its allocations, which is what lets the simulator pool Managers
// between sim.Run calls. A freshly Reset Manager replays identically to a
// freshly New'd one.
func (m *Manager) Reset(d *atom.DAG, s *schedule.Schedule, engines int, capacityBytes int64) error {
	if engines <= 0 || capacityBytes <= 0 {
		return fmt.Errorf("buffer: engines=%d capacity=%d", engines, capacityBytes)
	}
	m.dag, m.sched = d, s
	m.engines, m.capacity = engines, capacityBytes
	n := d.NumAtoms()
	m.resident = grow(m.resident, n)
	for i := range m.resident {
		m.resident[i] = -1
	}
	m.written = grow(m.written, n)
	clear(m.written)
	m.outPos = grow(m.outPos, n) // read only for resident atoms
	m.used = grow(m.used, engines)
	clear(m.used)
	m.outs = grow(m.outs, engines)
	m.wts = grow(m.wts, engines)
	for e := 0; e < engines; e++ {
		m.outs[e] = m.outs[e][:0]
		m.wts[e] = m.wts[e][:0]
	}
	m.round = 0
	m.evictions, m.highWater = 0, 0

	m.numberSlices(d)
	ns := len(m.wtag)
	m.words = (engines + 63) / 64
	m.holders = grow(m.holders, ns*m.words)
	clear(m.holders)
	m.nholders = grow(m.nholders, ns)
	clear(m.nholders)
	// Stale stamps are older than any stamp the next Round uses.
	m.streamStamp = grow(m.streamStamp, ns)
	m.streamSrc = grow(m.streamSrc, ns)

	// Consumer Rounds and weight-use Rounds, as CSR arrays: count, prefix
	// sum, then fill in Round order so every list comes out ascending.
	// Rounds[t] holds exactly the atoms with AtomRound == t; virtual input
	// atoms belong to no Round.
	m.consOff = grow(m.consOff, n+1)
	clear(m.consOff)
	m.wOff = grow(m.wOff, ns+1)
	clear(m.wOff)
	for _, r := range s.Rounds {
		for _, id := range r.Atoms {
			for _, dep := range d.Atoms[id].Deps {
				m.consOff[dep+1]++
			}
			if w := m.wid[id]; w >= 0 {
				m.wOff[w+1]++
			}
		}
	}
	prefixSum(m.consOff)
	prefixSum(m.wOff)
	m.consRound = grow(m.consRound, int(m.consOff[n]))
	m.wRound = grow(m.wRound, int(m.wOff[ns]))
	for t, r := range s.Rounds {
		for _, id := range r.Atoms {
			for _, dep := range d.Atoms[id].Deps {
				m.consRound[m.consOff[dep]] = int32(t)
				m.consOff[dep]++
			}
			if w := m.wid[id]; w >= 0 {
				m.wRound[m.wOff[w]] = int32(t)
				m.wOff[w]++
			}
		}
	}
	unshift(m.consOff)
	unshift(m.wOff)
	return nil
}

// prefixSum turns per-slot counts at off[i+1] into start offsets off[i].
func prefixSum(off []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// unshift restores start offsets after a fill pass advanced each off[i]
// to the end of list i (= the start of list i+1).
func unshift(off []int32) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// numberSlices assigns every weight slice of d a dense ID in (layer, c0,
// c1) order and records wid and wtag. Weighted atoms are bucketed by
// layer with one counting pass, and only each layer's bucket is sorted by
// channel range.
func (m *Manager) numberSlices(d *atom.DAG) {
	wid := grow(m.wid, d.NumAtoms())
	maxLayer, cnt := -1, 0
	for _, a := range d.Atoms {
		wid[a.ID] = -1
		if _, ok := weightKeyOf(a); ok {
			maxLayer = max(maxLayer, a.Layer)
			cnt++
		}
	}
	off := grow(m.layerOff, maxLayer+2)
	clear(off)
	for _, a := range d.Atoms {
		if _, ok := weightKeyOf(a); ok {
			off[a.Layer+1]++
		}
	}
	prefixSum(off)
	by := grow(m.byLayer, cnt)
	for _, a := range d.Atoms {
		if _, ok := weightKeyOf(a); ok {
			by[off[a.Layer]] = chanAtom{c0: int32(a.Region.C0), c1: int32(a.Region.C1), atom: int32(a.ID)}
			off[a.Layer]++
		}
	}
	// off[l] is now the end of layer l's bucket.
	tags := m.wtag[:0]
	lo := int32(0)
	for l := 0; l <= maxLayer; l++ {
		b := by[lo:off[l]]
		lo = off[l]
		slices.SortFunc(b, func(x, y chanAtom) int {
			return cmp.Or(cmp.Compare(x.c0, y.c0), cmp.Compare(x.c1, y.c1))
		})
		for i, c := range b {
			if i == 0 || c.c0 != b[i-1].c0 || c.c1 != b[i-1].c1 {
				tags = append(tags, wkey{layer: l, c0: int(c.c0), c1: int(c.c1)}.tag())
			}
			wid[c.atom] = int32(len(tags) - 1)
		}
	}
	m.wid, m.wtag, m.layerOff, m.byLayer = wid, tags, off, by
}

// weightKeyOf returns the weight slice an atom needs, if any.
func weightKeyOf(a *atom.Atom) (wkey, bool) {
	switch a.Task.Kind {
	case graph.OpConv, graph.OpFC, graph.OpDepthwiseConv:
		return wkey{layer: a.Layer, c0: a.Region.C0, c1: a.Region.C1}, true
	}
	return wkey{}, false
}

// Locate reports the engine currently holding atom id's output (-1 when
// off-chip). It implements mapping.Locator.
func (m *Manager) Locate(id int) int { return m.resident[id] }

// HasWeights reports whether engine e currently caches the weight slice
// atom id requires — one bit test. It implements mapping.WeightLocator.
func (m *Manager) HasWeights(e, id int) bool {
	w := m.wid[id]
	return w < 0 || m.holds(int(w), e) // no weights needed: placement is free to ignore
}

// holds reports whether engine e caches weight slice w.
func (m *Manager) holds(w, e int) bool {
	return m.holders[w*m.words+e>>6]&(1<<(e&63)) != 0
}

// Evictions returns the cumulative number of overflow write-backs.
func (m *Manager) Evictions() int64 { return m.evictions }

// HighWater returns the largest byte count any engine's buffer held at
// any point of the replay — how close the schedule came to capacity.
func (m *Manager) HighWater() int64 { return m.highWater }

// Capacity returns the per-engine buffer capacity in bytes.
func (m *Manager) Capacity() int64 { return m.capacity }

// ExecuteRound replays Round t with the given atom placement and returns
// its IO. Rounds must be executed in order starting from 0.
func (m *Manager) ExecuteRound(t int, placement Placement) (RoundIO, error) {
	var io RoundIO
	err := m.ExecuteRoundInto(t, placement, &io)
	return io, err
}

// ExecuteRoundInto is ExecuteRound writing into a caller-owned RoundIO,
// reusing its per-engine slices and Flows capacity — the pipelined
// simulator cycles a small ring of RoundIOs through it so the replay
// stops allocating after the first few Rounds.
func (m *Manager) ExecuteRoundInto(t int, placement Placement, io *RoundIO) error {
	if t != m.round {
		return fmt.Errorf("buffer: ExecuteRound(%d) out of order, want %d", t, m.round)
	}
	m.round++
	// Streamed (uncacheable) weight slices fetched from DRAM are still
	// broadcast on-chip within the Round: the first engine reads HBM and
	// forwards to later engines needing the same slice. The new stamp
	// forgets the previous Round's streams.
	m.stamp++
	io.reset(m.engines)
	roundAtoms := m.sched.Rounds[t].Atoms
	// Phase 1: fetch inputs and weights for every atom in the Round.
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		if e < 0 || e >= m.engines {
			return fmt.Errorf("buffer: atom %d has no valid placement", id)
		}
		a := m.dag.Atoms[id]
		for di, dep := range a.Deps {
			bytes := a.DepBytes[di]
			io.InputBytesTotal += bytes
			src := m.resident[dep]
			switch {
			case src == e:
				io.SRAMReadBytes[e] += bytes
				io.InputBytesOnChip += bytes
			case src >= 0:
				// The producing atom's tile often feeds several engines
				// in one Round (channel-partitioned consumers): tagging
				// by producer lets the NoC multicast it.
				io.Flows = append(io.Flows, Flow{Src: src, Dst: e, Bytes: bytes, Tag: int64(dep) + 1})
				io.SRAMReadBytes[src] += bytes
				io.SRAMWriteBytes[e] += bytes
				io.InputBytesOnChip += bytes
			default:
				io.DRAMReadBytes[e] += bytes
			}
		}
		w := int(m.wid[id])
		if w < 0 {
			continue
		}
		bytes := a.Task.WeightBytes()
		switch {
		case m.holds(w, e):
			// Local copy.
			io.SRAMReadBytes[e] += bytes
		case m.nholders[w] > 0:
			// Another engine caches the slice: forward over the NoC
			// instead of re-reading HBM (7 pJ/bit vs 0.61 pJ/bit/hop).
			src := m.nearestHolder(w, e)
			io.Flows = append(io.Flows, Flow{Src: src, Dst: e, Bytes: bytes, Tag: m.wtag[w]})
			io.SRAMReadBytes[src] += bytes
			io.SRAMWriteBytes[e] += bytes
			m.storeWeight(e, w, bytes, t, io)
		case m.streamStamp[w] == m.stamp:
			// Broadcast of a streamed slice within this Round.
			src := int(m.streamSrc[w])
			io.Flows = append(io.Flows, Flow{Src: src, Dst: e, Bytes: bytes, Tag: m.wtag[w]})
			io.SRAMReadBytes[src] += bytes
			io.SRAMWriteBytes[e] += bytes
		default:
			io.DRAMReadBytes[e] += bytes
			m.streamStamp[w], m.streamSrc[w] = m.stamp, int32(e)
			m.storeWeight(e, w, bytes, t, io)
		}
	}
	// Phase 2: retire consumed inputs whose last consumer has now run.
	for _, id := range roundAtoms {
		for _, dep := range m.dag.Atoms[id].Deps {
			if e := m.resident[dep]; e >= 0 && m.lastUse(dep) <= t {
				m.release(e, dep)
			}
		}
	}
	// Phase 3: store produced outputs.
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		out := m.dag.Atoms[id].OutputBytes()
		io.SRAMWriteBytes[e] += out
		if m.lastUse(id) < 0 {
			// Final outputs (no consumers) stream to DRAM.
			io.DRAMWriteBytes[e] += out
			m.written[id] = true
			continue
		}
		if m.storeOutput(e, id, out, t, io) {
			m.resident[id] = e
		}
	}
	return nil
}

// storeOutput buffers atom id's output on engine e, evicting per
// Algorithm 3 until it fits, and reports whether it was buffered. An
// output that is not buffered is written to DRAM instead. Entries that
// could never pay for the evictions they force are not cached: outputs
// above the full capacity spill directly — without this guard a single
// oversized tensor would write back an entire buffer of useful ofmaps
// and still not fit.
func (m *Manager) storeOutput(e, id int, bytes int64, t int, io *RoundIO) bool {
	if bytes > m.capacity || !m.makeRoom(e, bytes, t, io) {
		io.DRAMWriteBytes[e] += bytes
		m.written[id] = true
		return false
	}
	m.charge(e, bytes)
	m.outPos[id] = int32(len(m.outs[e]))
	m.outs[e] = append(m.outs[e], outEntry{atom: int32(id), bytes: bytes})
	return true
}

// storeWeight caches weight slice w on engine e, evicting per Algorithm 3
// until it fits. Slices above three quarters of the buffer stream through
// instead (their per-pass window is tiny); weights are immutable in DRAM,
// so a slice that is not cached costs nothing extra here.
func (m *Manager) storeWeight(e, w int, bytes int64, t int, io *RoundIO) {
	if bytes > m.capacity*3/4 || !m.makeRoom(e, bytes, t, io) {
		return
	}
	m.charge(e, bytes)
	m.wts[e] = append(m.wts[e], wEntry{slice: int32(w), bytes: bytes})
	m.holders[w*m.words+e>>6] |= 1 << (e & 63)
	m.nholders[w]++
}

// makeRoom evicts from engine e until `bytes` more fit. It reports false
// when nothing evictable is left (a pathological tiny buffer), in which
// case the new entry itself spills.
func (m *Manager) makeRoom(e int, bytes int64, t int, io *RoundIO) bool {
	for m.used[e]+bytes > m.capacity {
		if !m.evictOne(e, t, io) {
			return false
		}
	}
	return true
}

// charge adds bytes to engine e's occupancy.
func (m *Manager) charge(e int, bytes int64) {
	m.used[e] += bytes
	if m.used[e] > m.highWater {
		m.highWater = m.used[e]
	}
}

// nearestHolder picks the holder of slice w with the smallest index
// distance to e, the lower index on a tie — a mesh-free proximity proxy
// (engine indices are row-major, so close indices are close on the
// mesh). Holders are walked in ascending order, so the strict < keeps
// the lower index, and the walk stops once distances start growing.
func (m *Manager) nearestHolder(w, e int) int {
	best, bestD := -1, 1<<30
	set := m.holders[w*m.words : (w+1)*m.words]
	for wi, word := range set {
		for word != 0 {
			h := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			d := h - e
			if d < 0 {
				d = -d
			} else if d >= bestD {
				return best
			}
			if d < bestD {
				best, bestD = h, d
			}
		}
	}
	return best
}

// evictOne applies Algorithm 3 to engine e: release any entry with no
// future use; otherwise write back the entry with the largest invalid
// occupation (t_next − t) × size. Returns false if the buffer is empty.
//
// Candidates are ranked by an explicit total order — dead outputs by
// smallest atom ID, then dead weights by smallest slice ID (= smallest
// key), and live victims by (occupation, kind, ID) — so the unordered
// per-engine lists never reach a decision. Eviction choices shape DRAM
// traffic and flows, so an iteration-order tie-break would make whole
// Reports depend on replay history.
func (m *Manager) evictOne(e, t int, io *RoundIO) bool {
	var victimOcc int64 = -1
	victimOut, victimW := -1, -1 // index into outs[e] or wts[e]
	// Pass 1: free entries with no future use (paper line 8-12). The
	// current Round t still counts as a future use: eviction can run
	// mid-Round, before every fetch of Round t has been served, so
	// entries consumed this Round get occupation 0 (kept if possible)
	// rather than being dropped as dead.
	outs := m.outs[e]
	deadAtom := -1
	for i, o := range outs {
		id := int(o.atom)
		tn := nextAfter(m.consRound[m.consOff[id]:m.consOff[id+1]], t-1)
		if tn < 0 {
			if deadAtom < 0 || id < deadAtom {
				deadAtom = id
			}
			continue
		}
		occ := int64(tn-t) * o.bytes
		if occ > victimOcc || (occ == victimOcc && o.atom < outs[victimOut].atom) {
			victimOcc, victimOut = occ, i
		}
	}
	if deadAtom >= 0 {
		m.release(e, deadAtom)
		return true
	}
	wts := m.wts[e]
	deadW := -1
	for i, we := range wts {
		w := int(we.slice)
		tn := nextAfter(m.wRound[m.wOff[w]:m.wOff[w+1]], t-1)
		if tn < 0 {
			if deadW < 0 || w < deadW {
				deadW = w
			}
			continue
		}
		// Weights are immutable in DRAM: evicting one costs a refetch but
		// no write-back, and the global reuse-round estimate is
		// optimistic (the next user may be another engine entirely), so
		// weight entries are biased toward eviction over dirty ofmaps.
		// On an occupation tie a dirty ofmap victim is kept over a weight
		// victim for the same reason.
		occ := 2 * int64(tn-t) * we.bytes
		if occ > victimOcc || (occ == victimOcc && victimW >= 0 && we.slice < wts[victimW].slice) {
			victimOcc, victimOut, victimW = occ, -1, i
		}
	}
	if deadW >= 0 {
		m.releaseWeight(e, deadW)
		return true
	}
	// Pass 2: write back the worst occupier.
	switch {
	case victimOut >= 0:
		v := outs[victimOut]
		if !m.written[v.atom] {
			io.DRAMWriteBytes[e] += v.bytes
			m.written[v.atom] = true
		}
		m.release(e, int(v.atom))
	case victimW >= 0:
		// Weights are immutable in DRAM: dropping is free.
		m.releaseWeight(e, int(wts[victimW].slice))
	default:
		return false
	}
	m.evictions++
	return true
}

// release drops atom id's output from engine e's buffer.
func (m *Manager) release(e, id int) {
	if m.resident[id] != e {
		return
	}
	outs := m.outs[e]
	p := m.outPos[id]
	m.used[e] -= outs[p].bytes
	last := outs[len(outs)-1]
	outs[p] = last
	m.outPos[last.atom] = p
	m.outs[e] = outs[:len(outs)-1]
	m.resident[id] = -1
}

// releaseWeight drops weight slice w from engine e's buffer.
func (m *Manager) releaseWeight(e, w int) {
	wts := m.wts[e]
	for i, we := range wts {
		if int(we.slice) == w {
			m.used[e] -= we.bytes
			wts[i] = wts[len(wts)-1]
			m.wts[e] = wts[:len(wts)-1]
			m.holders[w*m.words+e>>6] &^= 1 << (e & 63)
			m.nholders[w]--
			return
		}
	}
}

// nextAfter returns the first Round in the ascending list that is
// strictly after t, or -1 if none remains.
func nextAfter(rounds []int32, t int) int {
	lo, hi := 0, len(rounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(rounds[mid]) > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(rounds) {
		return -1
	}
	return int(rounds[lo])
}

// lastUse returns the final consuming Round of atom id, or -1 if none.
func (m *Manager) lastUse(id int) int {
	lo, hi := m.consOff[id], m.consOff[id+1]
	if lo == hi {
		return -1
	}
	return int(m.consRound[hi-1])
}

// Used returns the bytes currently resident in engine e's buffer.
func (m *Manager) Used(e int) int64 { return m.used[e] }
