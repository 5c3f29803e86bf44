package atom_test

import (
	"fmt"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// refAtom is one vertex of the reference build: its region and its
// producer edges in the order the reference discovers them.
type refAtom struct {
	layer, sample int
	region        atom.Region
	deps          []int
	bytes         []int64
}

// refGrid is the reference's record of one (layer, sample) tiling.
type refGrid struct {
	part       atom.Partition
	nH, nW, nC int
	base       int
}

// refDAG is the straightforward map-based atomic-DAG builder: a
// hash-keyed grid per sample and a fresh map[int]int per atom to merge
// repeated producers. It is the oracle the dense builder in atom.Build
// must reproduce exactly, edge order included.
type refDAG struct {
	g     *graph.Graph
	atoms []refAtom
	grids []map[int]refGrid
}

func refBuild(g *graph.Graph, batch int, spec atom.Spec) *refDAG {
	d := &refDAG{g: g, grids: make([]map[int]refGrid, batch)}
	for s := 0; s < batch; s++ {
		d.grids[s] = make(map[int]refGrid)
		for _, lid := range g.Topo() {
			l := g.Layer(lid)
			if l.Kind == graph.OpConcat {
				continue
			}
			part, ok := spec[lid]
			if !ok {
				part = atom.WholeLayer(l)
			}
			d.addLayerAtoms(s, l, part)
		}
	}
	return d
}

func (d *refDAG) addLayerAtoms(sample int, l *graph.Layer, part atom.Partition) {
	s := l.Shape
	nH, nW, nC := refCeilDiv(s.Ho, part.Hp), refCeilDiv(s.Wo, part.Wp), refCeilDiv(s.Co, part.Cop)
	d.grids[sample][l.ID] = refGrid{part: part, nH: nH, nW: nW, nC: nC, base: len(d.atoms)}
	for ih := 0; ih < nH; ih++ {
		for iw := 0; iw < nW; iw++ {
			for ic := 0; ic < nC; ic++ {
				r := atom.Region{
					H0: ih * part.Hp, H1: min((ih+1)*part.Hp, s.Ho),
					W0: iw * part.Wp, W1: min((iw+1)*part.Wp, s.Wo),
					C0: ic * part.Cop, C1: min((ic+1)*part.Cop, s.Co),
				}
				deps, bytes := d.depsFor(sample, l, r)
				d.atoms = append(d.atoms, refAtom{
					layer: l.ID, sample: sample, region: r, deps: deps, bytes: bytes,
				})
			}
		}
	}
}

func (d *refDAG) depsFor(sample int, l *graph.Layer, r atom.Region) ([]int, []int64) {
	var deps []int
	var bytes []int64
	pos := make(map[int]int)
	for _, ref := range refInputRegions(d.g, l, r) {
		d.collectOverlaps(sample, ref, func(id int, overlap int64) {
			if i, ok := pos[id]; ok {
				bytes[i] += overlap
			} else {
				pos[id] = len(deps)
				deps = append(deps, id)
				bytes = append(bytes, overlap)
			}
		})
	}
	for i, id := range deps {
		if lim := d.atoms[id].region.Bytes(); bytes[i] > lim {
			bytes[i] = lim
		}
	}
	return deps, bytes
}

type refRegionRef struct {
	layer  int
	region atom.Region
}

func refInputRegions(g *graph.Graph, l *graph.Layer, r atom.Region) []refRegionRef {
	s := l.Shape
	var refs []refRegionRef
	switch l.Kind {
	case graph.OpInput:
		return nil
	case graph.OpFC, graph.OpGlobalPool:
		for _, in := range l.Inputs {
			p := g.Layer(in).Shape
			full := atom.Region{H0: 0, H1: p.Ho, W0: 0, W1: p.Wo, C0: 0, C1: p.Co}
			refs = append(refs, refResolve(g, in, full)...)
		}
		return refs
	case graph.OpEltwise, graph.OpActivation:
		for _, in := range l.Inputs {
			refs = append(refs, refResolve(g, in, r)...)
		}
		return refs
	}
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
		c0, c1 = r.C0, r.C1
	default:
		c0, c1 = 0, s.Ci
	}
	return refResolve(g, l.Inputs[0], atom.Region{H0: h0, H1: h1, W0: w0, W1: w1, C0: c0, C1: c1})
}

func refResolve(g *graph.Graph, lid int, r atom.Region) []refRegionRef {
	l := g.Layer(lid)
	if l.Kind != graph.OpConcat {
		if r.H1 <= r.H0 || r.W1 <= r.W0 || r.C1 <= r.C0 {
			return nil
		}
		return []refRegionRef{{layer: lid, region: r}}
	}
	var refs []refRegionRef
	off := 0
	for _, in := range l.Inputs {
		pc := g.Layer(in).Shape.Co
		lo, hi := max(r.C0, off), min(r.C1, off+pc)
		if lo < hi {
			sub := r
			sub.C0, sub.C1 = lo-off, hi-off
			refs = append(refs, refResolve(g, in, sub)...)
		}
		off += pc
	}
	return refs
}

func (d *refDAG) collectOverlaps(sample int, ref refRegionRef, visit func(id int, overlap int64)) {
	gr, ok := d.grids[sample][ref.layer]
	if !ok {
		panic(fmt.Sprintf("reference: no grid for layer %d sample %d", ref.layer, sample))
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
				a := d.atoms[id].region
				h := int64(min(a.H1, r.H1) - max(a.H0, r.H0))
				w := int64(min(a.W1, r.W1) - max(a.W0, r.W0))
				c := int64(min(a.C1, r.C1) - max(a.C0, r.C0))
				var overlap int64
				if h > 0 && w > 0 && c > 0 {
					overlap = h * w * c
				}
				visit(id, overlap)
			}
		}
	}
}

func refCeilDiv(a, b int) int { return (a + b - 1) / b }

// TestDepsMatchReference checks the dense dependency builder against the
// map-based reference on every zoo model, at the default search profile
// (SA seed 1, 600 iterations, 1024 tiles per layer) and batch 1 and 2:
// same atoms, and per atom the same Deps and DepBytes in the same order.
func TestDepsMatchReference(t *testing.T) {
	hw := sim.DefaultConfig()
	for _, model := range models.Names() {
		if testing.Short() && model == "resnet1001" {
			continue
		}
		t.Run(model, func(t *testing.T) {
			g := models.MustBuild(model)
			res := anneal.SA(g, hw.Engine, hw.Dataflow,
				anneal.Options{MaxIters: 600, Seed: 1, MaxTilesPerLay: 1024})
			for _, batch := range []int{1, 2} {
				d, err := atom.Build(g, batch, res.Spec)
				if err != nil {
					t.Fatal(err)
				}
				compareToReference(t, d, refBuild(g, batch, res.Spec))
			}
		})
	}
}

// TestDepsMatchReferenceRepeatedProducers covers what the zoo never
// exercises: one consumer reaching the same producer atom through several
// input refs (an eltwise of a layer with itself, a concat of a layer with
// itself), where the per-edge volumes must accumulate and then cap at the
// producer's output size.
func TestDepsMatchReferenceRepeatedProducers(t *testing.T) {
	g := graph.New("repeat")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 8, Wo: 8, Co: 8})
	a := g.AddLayer("a", graph.OpConv, graph.ConvShape(8, 8, 8, 8, 3, 1, 1), in)
	add := g.AddLayer("add", graph.OpEltwise, graph.EltwiseShape(8, 8, 8), a, a)
	cat := g.AddLayer("cat", graph.OpConcat,
		graph.Shape{Hi: 8, Wi: 8, Ci: 16, Ho: 8, Wo: 8, Co: 16, Kh: 1, Kw: 1, Stride: 1}, a, a)
	c := g.AddLayer("c", graph.OpConv, graph.ConvShape(8, 8, 16, 8, 3, 1, 1), cat)
	g.AddLayer("sum", graph.OpEltwise, graph.EltwiseShape(8, 8, 8), add, c)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := atom.Spec{
		a:   {Hp: 4, Wp: 8, Cop: 4},
		add: {Hp: 2, Wp: 8, Cop: 8},
		c:   {Hp: 3, Wp: 4, Cop: 8},
	}
	for _, batch := range []int{1, 2} {
		d, err := atom.Build(g, batch, spec)
		if err != nil {
			t.Fatal(err)
		}
		compareToReference(t, d, refBuild(g, batch, spec))
	}
}

func compareToReference(t *testing.T, d *atom.DAG, ref *refDAG) {
	t.Helper()
	if d.NumAtoms() != len(ref.atoms) {
		t.Fatalf("batch %d: %d atoms, reference has %d", d.Batch, d.NumAtoms(), len(ref.atoms))
	}
	for id, a := range d.Atoms {
		want := ref.atoms[id]
		if a.ID != id || a.Layer != want.layer || a.Sample != want.sample || a.Region != want.region {
			t.Fatalf("batch %d atom %d: got %v, reference L%d s%d %+v",
				d.Batch, id, a, want.layer, want.sample, want.region)
		}
		if len(a.Deps) != len(want.deps) || len(a.DepBytes) != len(want.bytes) {
			t.Fatalf("batch %d atom %d: %d deps / %d weights, reference %d",
				d.Batch, id, len(a.Deps), len(a.DepBytes), len(want.deps))
		}
		for i := range want.deps {
			if a.Deps[i] != want.deps[i] || a.DepBytes[i] != want.bytes[i] {
				t.Fatalf("batch %d atom %d edge %d: (%d, %d B), reference (%d, %d B)",
					d.Batch, id, i, a.Deps[i], a.DepBytes[i], want.deps[i], want.bytes[i])
			}
		}
	}
}

// TestDepSlicesCapacityCapped checks that every atom's Deps and DepBytes
// are capacity-capped windows of the build's arenas: an append to one
// atom's deps must reallocate rather than write into a neighbour's.
func TestDepSlicesCapacityCapped(t *testing.T) {
	hw := sim.DefaultConfig()
	for _, model := range []string{"tinybranch", "pnascell", "resnet50"} {
		g := models.MustBuild(model)
		res := anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{MaxIters: 60, Seed: 1})
		d, err := atom.Build(g, 2, res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range d.Atoms {
			if cap(a.Deps) != len(a.Deps) || cap(a.DepBytes) != len(a.DepBytes) {
				t.Fatalf("%s atom %d: deps len/cap %d/%d, bytes len/cap %d/%d",
					model, a.ID, len(a.Deps), cap(a.Deps), len(a.DepBytes), cap(a.DepBytes))
			}
		}
		for id := 0; id+1 < d.NumAtoms(); id++ {
			a, next := d.Atoms[id], d.Atoms[id+1]
			if len(next.Deps) == 0 {
				continue
			}
			wantDeps := append([]int(nil), next.Deps...)
			wantBytes := append([]int64(nil), next.DepBytes...)
			_ = append(a.Deps, -1)
			_ = append(a.DepBytes, -1)
			for i := range wantDeps {
				if next.Deps[i] != wantDeps[i] || next.DepBytes[i] != wantBytes[i] {
					t.Fatalf("%s: appending to atom %d's deps overwrote atom %d's edge %d",
						model, a.ID, next.ID, i)
				}
			}
		}
	}
}
