// Package atom implements the paper's central abstraction: the atomic DAG
// (Sec. III). Each DNN layer is partitioned into atoms — sub-tiles of its
// output tensor sized [h_p, w_p, c_p^o] — and atom-level data-dependency
// edges are derived by back-projecting each atom's receptive field onto
// its producer layers' tilings. A batch of B inferences is represented as
// B replicated sub-DAGs inside one unified DAG, enabling batch-level
// parallelism (paper Fig. 6, parallelism type 4).
//
// Concat layers are elided during DAG construction: concatenation along
// channels is pure addressing on-chip, so consumers of a concat resolve
// their input channel ranges directly to the concat's producers.
package atom

import (
	"fmt"
	"slices"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// Partition describes how one layer's output tensor is tiled into atoms.
type Partition struct {
	Hp, Wp, Cop int // tile extents along Ho, Wo, Co
}

// Tiles returns the atom count the partition induces on the layer.
func (p Partition) Tiles(l *graph.Layer) int {
	s := l.Shape
	return ceilDiv(s.Ho, p.Hp) * ceilDiv(s.Wo, p.Wp) * ceilDiv(s.Co, p.Cop)
}

// Validate checks the partition against the layer's shape.
func (p Partition) Validate(l *graph.Layer) error {
	if p.Hp <= 0 || p.Wp <= 0 || p.Cop <= 0 {
		return fmt.Errorf("atom: layer %s: non-positive partition %+v", l.Name, p)
	}
	return nil
}

// WholeLayer returns the trivial partition producing exactly one atom.
func WholeLayer(l *graph.Layer) Partition {
	s := l.Shape
	return Partition{Hp: s.Ho, Wp: s.Wo, Cop: s.Co}
}

// Spec maps layer IDs to partitions. Layers without an entry get a single
// atom (WholeLayer). Concat and Input layers never need entries.
type Spec map[int]Partition

// Region is a half-open sub-box of a layer's output tensor.
type Region struct {
	H0, H1 int // [H0, H1) along Ho
	W0, W1 int
	C0, C1 int // along Co
}

// Bytes returns the INT8 footprint of the region.
func (r Region) Bytes() int64 {
	return int64(r.H1-r.H0) * int64(r.W1-r.W0) * int64(r.C1-r.C0)
}

func (r Region) empty() bool { return r.H1 <= r.H0 || r.W1 <= r.W0 || r.C1 <= r.C0 }

// Atom is one vertex of the atomic DAG: the Region of one layer's output
// for one batch sample, plus the engine.Task that prices its execution.
type Atom struct {
	ID     int
	Layer  int // layer ID in the source graph
	Sample int // batch index
	Index  int // tile index within (Layer, Sample), row-major (h, w, c)
	Region Region
	Task   engine.Task

	// Deps lists producer atom IDs; DepBytes[i] is the byte volume of the
	// overlap between Deps[i]'s output region and this atom's receptive
	// field — the actual tensor traffic of the edge. Atoms of input layers
	// have no deps (their data is in DRAM).
	Deps     []int
	DepBytes []int64
}

// OutputBytes returns the atom's produced tensor bytes.
func (a *Atom) OutputBytes() int64 { return a.Region.Bytes() }

// String implements fmt.Stringer with the paper's "layer-index" notation.
func (a *Atom) String() string {
	return fmt.Sprintf("atom{L%d-%d s%d [%d:%d,%d:%d,%d:%d]}",
		a.Layer, a.Index, a.Sample,
		a.Region.H0, a.Region.H1, a.Region.W0, a.Region.W1, a.Region.C0, a.Region.C1)
}

// grid records the regular tiling of one (layer, sample) so that
// region→atom lookups are O(overlap) instead of O(atoms). An elided
// (concat) layer's grid has base elided.
type grid struct {
	part       Partition
	nH, nW, nC int
	base       int // first atom ID of this grid
}

// elided marks the grid slot of a concat layer, which owns no atoms.
const elided = -1

// DAG is the atomic computation graph.
type DAG struct {
	Graph *graph.Graph
	Batch int
	Atoms []*Atom

	consumers [][]int
	grids     [][]grid // per sample, indexed by layer ID
}

// NumAtoms returns the vertex count.
func (d *DAG) NumAtoms() int { return len(d.Atoms) }

// Consumers returns the atom IDs that consume atom id's output.
// The returned slice must not be modified.
func (d *DAG) Consumers(id int) []int { return d.consumers[id] }

// AtomsOf returns the atom IDs of one (layer, sample), or nil if the layer
// is elided (concat) or unknown.
func (d *DAG) AtomsOf(sample, layerID int) []int {
	if layerID < 0 || layerID >= len(d.grids[sample]) {
		return nil
	}
	g := d.grids[sample][layerID]
	if g.base == elided {
		return nil
	}
	n := g.nH * g.nW * g.nC
	ids := make([]int, n)
	for i := range ids {
		ids[i] = g.base + i
	}
	return ids
}

// Validate checks the DAG's structural invariants: dependency edges point
// strictly backward (acyclicity by construction order), every edge has a
// positive byte weight no larger than the producer's output, and each
// (layer, sample) grid exactly tiles its output tensor.
func (d *DAG) Validate() error {
	for _, a := range d.Atoms {
		if len(a.Deps) != len(a.DepBytes) {
			return fmt.Errorf("atom %d: %d deps but %d weights", a.ID, len(a.Deps), len(a.DepBytes))
		}
		for i, dep := range a.Deps {
			if dep >= a.ID {
				return fmt.Errorf("atom %d: forward dep %d", a.ID, dep)
			}
			if a.DepBytes[i] <= 0 || a.DepBytes[i] > d.Atoms[dep].OutputBytes() {
				return fmt.Errorf("atom %d: dep %d carries %d bytes (producer has %d)",
					a.ID, dep, a.DepBytes[i], d.Atoms[dep].OutputBytes())
			}
		}
	}
	for s := 0; s < d.Batch; s++ {
		for lid, gr := range d.grids[s] {
			if gr.base == elided {
				continue
			}
			l := d.Graph.Layer(lid)
			var covered int64
			n := gr.nH * gr.nW * gr.nC
			for i := 0; i < n; i++ {
				covered += d.Atoms[gr.base+i].Region.Bytes()
			}
			if covered != l.OutputBytes() {
				return fmt.Errorf("layer %d sample %d: atoms cover %d of %d bytes",
					lid, s, covered, l.OutputBytes())
			}
		}
	}
	return nil
}

// Build constructs the atomic DAG for the workload graph under the given
// per-layer partition spec and batch size.
func Build(g *graph.Graph, batch int, spec Spec) (*DAG, error) {
	if batch < 1 {
		return nil, fmt.Errorf("atom: batch %d < 1", batch)
	}
	// Resolve and validate every partition up front: the atom count
	// Σ tiles × batch sizes the atom slab and the dependency scratch.
	parts := make([]Partition, g.NumLayers())
	perSample := 0
	for _, lid := range g.Topo() {
		l := g.Layer(lid)
		if l.Kind == graph.OpConcat {
			continue // elided: pure channel addressing
		}
		part, ok := spec[lid]
		if !ok {
			part = WholeLayer(l)
		}
		if err := part.Validate(l); err != nil {
			return nil, err
		}
		parts[lid] = part
		perSample += part.Tiles(l)
	}
	total := perSample * batch
	d := &DAG{Graph: g, Batch: batch, grids: make([][]grid, batch)}
	b := &builder{
		d:     d,
		slab:  make([]Atom, total),
		pos:   make([]int32, total),
		stamp: make([]uint32, total),
	}
	d.Atoms = make([]*Atom, 0, total)
	for s := 0; s < batch; s++ {
		grids := make([]grid, g.NumLayers())
		for i := range grids {
			grids[i].base = elided
		}
		d.grids[s] = grids
		for _, lid := range g.Topo() {
			if l := g.Layer(lid); l.Kind != graph.OpConcat {
				b.addLayerAtoms(s, l, parts[lid])
			}
		}
	}
	d.consumers = consumersOf(d.Atoms)
	return d, nil
}

// consumersOf inverts the dependency edges. Each atom's consumer list is
// a capacity-capped window of one shared backing array, in atom-ID order.
func consumersOf(atoms []*Atom) [][]int {
	count := make([]int, len(atoms))
	edges := 0
	for _, a := range atoms {
		for _, dep := range a.Deps {
			count[dep]++
		}
		edges += len(a.Deps)
	}
	flat := make([]int, edges)
	out := make([][]int, len(atoms))
	off := 0
	for id, n := range count {
		if n > 0 {
			out[id] = flat[off : off : off+n]
			off += n
		}
	}
	for _, a := range atoms {
		for _, dep := range a.Deps {
			out[dep] = append(out[dep], a.ID)
		}
	}
	return out
}

// builder holds the reusable scratch of one Build. Atoms come from one
// slab; each atom's Deps/DepBytes are capacity-capped windows carved from
// chunked arenas, so appending to one atom's deps can never overwrite a
// neighbour's. Consecutive atoms of one (sample, layer) with equal
// back-projected refs share one window (see addLayerAtoms). pos/stamp
// are an epoch-stamped dense map from producer atom ID to its slot in
// the atom under construction: bumping epoch clears it in O(1).
type builder struct {
	d    *DAG
	slab []Atom

	pos   []int32
	stamp []uint32
	epoch uint32

	deps     []int       // scratch: current atom's producers, in first-seen order
	bytes    []int64     // scratch: overlap volume per entry of deps
	refs     []regionRef // scratch: current atom's back-projected input regions
	prevRefs []regionRef // the refs whose window the previous atom owns

	depArena  []int
	byteArena []int64
}

// arenaChunk caps the entry count of one dependency-arena chunk; small
// DAGs get chunks of arenaPerAtom entries per atom instead.
const (
	arenaChunk   = 1 << 14
	arenaPerAtom = 8
)

// addLayerAtoms tiles one (layer, sample) and wires dependency edges.
//
// An atom whose back-projected refs equal the previous atom's reuses
// that atom's Deps/DepBytes window: depsFor is a pure function of
// (sample, refs), so the edges are identical. Tiles are visited with the
// channel index innermost, so every output-channel tile at one spatial
// position of a dense conv or FC layer — which all read the same input
// region — shares one window. Depthwise, pool and eltwise channel tiles
// read distinct channel ranges and never do.
func (b *builder) addLayerAtoms(sample int, l *graph.Layer, part Partition) {
	d := b.d
	s := l.Shape
	nH, nW, nC := ceilDiv(s.Ho, part.Hp), ceilDiv(s.Wo, part.Wp), ceilDiv(s.Co, part.Cop)
	d.grids[sample][l.ID] = grid{part: part, nH: nH, nW: nW, nC: nC, base: len(d.Atoms)}
	var prev *Atom
	idx := 0
	for ih := 0; ih < nH; ih++ {
		for iw := 0; iw < nW; iw++ {
			for ic := 0; ic < nC; ic++ {
				r := Region{
					H0: ih * part.Hp, H1: min((ih+1)*part.Hp, s.Ho),
					W0: iw * part.Wp, W1: min((iw+1)*part.Wp, s.Wo),
					C0: ic * part.Cop, C1: min((ic+1)*part.Cop, s.Co),
				}
				id := len(d.Atoms)
				a := &b.slab[id]
				*a = Atom{
					ID:     id,
					Layer:  l.ID,
					Sample: sample,
					Index:  idx,
					Region: r,
					Task:   taskFor(l, r),
				}
				b.refs = appendInputRegions(b.refs[:0], d.Graph, l, r)
				if prev != nil && slices.Equal(b.refs, b.prevRefs) {
					a.Deps, a.DepBytes = prev.Deps, prev.DepBytes
				} else {
					a.Deps, a.DepBytes = b.depsFor(sample)
					b.refs, b.prevRefs = b.prevRefs, b.refs
				}
				prev = a
				d.Atoms = append(d.Atoms, a)
				idx++
			}
		}
	}
}

// taskFor builds the engine.Task pricing an atom covering region r of l.
func taskFor(l *graph.Layer, r Region) engine.Task {
	s := l.Shape
	t := engine.Task{
		Kind: l.Kind,
		Hp:   r.H1 - r.H0, Wp: r.W1 - r.W0,
		Ci: s.Ci, Cop: r.C1 - r.C0,
		Kh: s.Kh, Kw: s.Kw, Stride: s.Stride,
	}
	if l.Kind == graph.OpDepthwiseConv {
		t.Ci = 1
	}
	return t
}

// depsFor resolves the producer atoms whose outputs overlap the refs in
// b.refs (an atom's back-projected receptive field) in the given sample,
// together with the per-edge overlap volume in bytes. Producers appear in
// the order they are first reached.
func (b *builder) depsFor(sample int) ([]int, []int64) {
	b.epoch++
	b.deps, b.bytes = b.deps[:0], b.bytes[:0]
	for _, ref := range b.refs {
		b.collectOverlaps(sample, ref)
	}
	// Multiple refs can overlap the same producer region (e.g. eltwise
	// inputs resolving to one atom); cap at the producer's output size.
	for i, id := range b.deps {
		if lim := b.slab[id].OutputBytes(); b.bytes[i] > lim {
			b.bytes[i] = lim
		}
	}
	n := len(b.deps)
	if n == 0 {
		return nil, nil
	}
	if n > len(b.depArena) {
		size := max(n, min(arenaChunk, arenaPerAtom*len(b.slab)))
		b.depArena = make([]int, size)
		b.byteArena = make([]int64, size)
	}
	deps := b.depArena[:n:n]
	bytes := b.byteArena[:n:n]
	b.depArena, b.byteArena = b.depArena[n:], b.byteArena[n:]
	copy(deps, b.deps)
	copy(bytes, b.bytes)
	return deps, bytes
}

// regionRef names a required region of one producer layer's output.
type regionRef struct {
	layer  int
	region Region
}

// appendInputRegions back-projects output region r of layer l onto its
// producer layers, resolving through concat layers recursively, and
// appends the resulting refs to dst.
func appendInputRegions(dst []regionRef, g *graph.Graph, l *graph.Layer, r Region) []regionRef {
	s := l.Shape
	switch l.Kind {
	case graph.OpInput:
		return dst
	case graph.OpFC, graph.OpGlobalPool:
		// Consumes the producer's whole tensor. (GlobalPool could in
		// principle restrict channels, but it is never partitioned —
		// keeping the full extent is always correct.)
		for _, in := range l.Inputs {
			p := g.Layer(in).Shape
			full := Region{H0: 0, H1: p.Ho, W0: 0, W1: p.Wo, C0: 0, C1: p.Co}
			dst = appendResolved(dst, g, in, full)
		}
		return dst
	case graph.OpEltwise, graph.OpActivation:
		for _, in := range l.Inputs {
			dst = appendResolved(dst, g, in, r)
		}
		return dst
	}
	// Conv-like (Conv, DWConv, Pool): spatial receptive field with halo.
	stride, pad := s.Stride, s.Pad
	if stride <= 0 {
		stride = 1
	}
	h0 := max(0, r.H0*stride-pad)
	h1 := min(s.Hi, (r.H1-1)*stride-pad+s.Kh)
	w0 := max(0, r.W0*stride-pad)
	w1 := min(s.Wi, (r.W1-1)*stride-pad+s.Kw)
	var c0, c1 int
	switch l.Kind {
	case graph.OpDepthwiseConv, graph.OpPool:
		c0, c1 = r.C0, r.C1 // channel-preserving
	default:
		c0, c1 = 0, s.Ci // dense conv consumes all input channels
	}
	return appendResolved(dst, g, l.Inputs[0], Region{H0: h0, H1: h1, W0: w0, W1: w1, C0: c0, C1: c1})
}

// appendResolved maps a required region of layer `lid`'s output through
// any concat layers down to concrete (non-concat) producer regions and
// appends them to dst.
func appendResolved(dst []regionRef, g *graph.Graph, lid int, r Region) []regionRef {
	l := g.Layer(lid)
	if l.Kind != graph.OpConcat {
		if r.empty() {
			return dst
		}
		return append(dst, regionRef{layer: lid, region: r})
	}
	off := 0
	for _, in := range l.Inputs {
		pc := g.Layer(in).Shape.Co
		lo, hi := max(r.C0, off), min(r.C1, off+pc)
		if lo < hi {
			sub := r
			sub.C0, sub.C1 = lo-off, hi-off
			dst = appendResolved(dst, g, in, sub)
		}
		off += pc
	}
	return dst
}

// collectOverlaps adds the producer atoms whose regions overlap ref within
// the sample to the current atom's deps, accumulating overlap bytes.
func (b *builder) collectOverlaps(sample int, ref regionRef) {
	gr := b.d.grids[sample][ref.layer]
	if gr.base == elided {
		// appendResolved flattens concat chains, so reaching an elided
		// producer means a bug in construction order.
		panic(fmt.Sprintf("atom: no grid for layer %d sample %d", ref.layer, sample))
	}
	r := ref.region
	p := gr.part
	ih0, ih1 := r.H0/p.Hp, (r.H1-1)/p.Hp
	iw0, iw1 := r.W0/p.Wp, (r.W1-1)/p.Wp
	ic0, ic1 := r.C0/p.Cop, (r.C1-1)/p.Cop
	for ih := ih0; ih <= ih1 && ih < gr.nH; ih++ {
		for iw := iw0; iw <= iw1 && iw < gr.nW; iw++ {
			for ic := ic0; ic <= ic1 && ic < gr.nC; ic++ {
				id := gr.base + (ih*gr.nW+iw)*gr.nC + ic
				overlap := overlapBytes(b.slab[id].Region, r)
				if b.stamp[id] == b.epoch {
					b.bytes[b.pos[id]] += overlap
					continue
				}
				b.stamp[id] = b.epoch
				b.pos[id] = int32(len(b.deps))
				b.deps = append(b.deps, id)
				b.bytes = append(b.bytes, overlap)
			}
		}
	}
}

// overlapBytes returns the intersection volume of two regions.
func overlapBytes(a, b Region) int64 {
	h := int64(min(a.H1, b.H1) - max(a.H0, b.H0))
	w := int64(min(a.W1, b.W1) - max(a.W0, b.W0))
	c := int64(min(a.C1, b.C1) - max(a.C0, b.C0))
	if h <= 0 || w <= 0 || c <= 0 {
		return 0
	}
	return h * w * c
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
