package mapping

import (
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

func TestZigZagOrder(t *testing.T) {
	m := New(noc.NewMesh(4, 2, 8), &atom.DAG{})
	want := []int{0, 1, 2, 3, 7, 6, 5, 4}
	got := m.ZigZag()
	if len(got) != len(want) {
		t.Fatalf("zigzag len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zigzag = %v, want %v", got, want)
		}
	}
	// Consecutive zig-zag slots are mesh-adjacent (1 hop).
	mesh := noc.NewMesh(4, 2, 8)
	for i := 1; i < len(got); i++ {
		if mesh.Hops(got[i-1], got[i]) != 1 {
			t.Errorf("zigzag slots %d,%d not adjacent", got[i-1], got[i])
		}
	}
}

// fig7DAG reproduces the paper's Fig. 7 situation: layer 3 atoms depend on
// layer 1 and layer 2 atoms produced in the previous round.
func fig7DAG(t *testing.T) (*atom.DAG, []int, []int) {
	t.Helper()
	g := graph.New("fig7")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 12, Wo: 4, Co: 4})
	l1 := g.AddLayer("l1", graph.OpConv, graph.ConvShape(12, 4, 4, 4, 1, 1, 0), in)
	l2 := g.AddLayer("l2", graph.OpConv, graph.ConvShape(12, 4, 4, 4, 1, 1, 0), in)
	g.AddLayer("l3", graph.OpEltwise, graph.EltwiseShape(12, 4, 4), l1, l2)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := atom.Spec{
		l1: {Hp: 4, Wp: 4, Cop: 4}, // 3 atoms
		l2: {Hp: 4, Wp: 4, Cop: 4}, // 3 atoms
		3:  {Hp: 4, Wp: 4, Cop: 4}, // l3: 3 atoms
	}
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	var prev, cur []int
	for _, a := range d.Atoms {
		switch a.Layer {
		case l1, l2:
			prev = append(prev, a.ID)
		case 3:
			cur = append(cur, a.ID)
		}
	}
	return d, prev, cur
}

func TestPlaceRoundReducesHops(t *testing.T) {
	d, prev, cur := fig7DAG(t)
	mesh := noc.NewMesh(3, 2, 8)
	m := New(mesh, d)

	// Round t: place layers 1 and 2 with the identity permutation.
	r0 := m.PlaceRound(prev, func(int) int { return -1 })
	locate := r0.Engine

	// Round t+1: the mapper's choice must beat or match the worst
	// permutation's cost.
	r1 := m.PlaceRound(cur, locate)
	// Compute the cost of the chosen placement independently.
	var chosen int64
	for _, id := range cur {
		a := d.Atoms[id]
		for di, dep := range a.Deps {
			src := locate(dep)
			if src < 0 || src == r1.Engine(id) {
				continue
			}
			chosen += a.DepBytes[di] * int64(mesh.Hops(src, r1.Engine(id)))
		}
	}
	if chosen != r1.ByteHops {
		t.Errorf("reported ByteHops %d != recomputed %d", r1.ByteHops, chosen)
	}
	// Worst case: reverse placement of the 3 atoms.
	var worst int64
	rev := m.ZigZag()
	for i, id := range cur {
		e := rev[len(cur)-1-i]
		a := d.Atoms[id]
		for di, dep := range a.Deps {
			src := locate(dep)
			if src < 0 || src == e {
				continue
			}
			worst += a.DepBytes[di] * int64(mesh.Hops(src, e))
		}
	}
	if chosen > worst {
		t.Errorf("optimized cost %d > naive reversed cost %d", chosen, worst)
	}
}

func TestPlacementIsInjective(t *testing.T) {
	g := models.MustBuild("tinybranch")
	spec := make(atom.Spec)
	for _, lid := range g.ComputeLayers() {
		l := g.Layer(lid)
		spec[lid] = atom.Partition{Hp: l.Shape.Ho, Wp: l.Shape.Wo, Cop: (l.Shape.Co + 1) / 2}
	}
	d, err := atom.Build(g, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	mesh := noc.NewMesh(4, 4, 8)
	m := New(mesh, d)
	// Take the first 8 non-input atoms as one synthetic round.
	var round []int
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput && len(round) < 8 {
			round = append(round, a.ID)
		}
	}
	res := m.PlaceRound(round, func(int) int { return -1 })
	seen := make(map[int]bool)
	for _, id := range round {
		e := res.Engine(id)
		if e < 0 {
			t.Fatalf("atom %d unplaced", id)
		}
		if seen[e] {
			t.Fatalf("engine %d assigned twice", e)
		}
		seen[e] = true
	}
}

func TestSameLayerAtomsAdjacent(t *testing.T) {
	d, prev, _ := fig7DAG(t)
	mesh := noc.NewMesh(3, 2, 8)
	m := New(mesh, d)
	res := m.PlaceRound(prev, func(int) int { return -1 })
	// Atoms of one layer occupy consecutive zig-zag slots.
	slotOf := make(map[int]int)
	for i, e := range m.ZigZag() {
		slotOf[e] = i
	}
	byLayer := map[int][]int{}
	for _, id := range prev {
		byLayer[d.Atoms[id].Layer] = append(byLayer[d.Atoms[id].Layer], slotOf[res.Engine(id)])
	}
	for layer, slots := range byLayer {
		lo, hi := slots[0], slots[0]
		for _, s := range slots {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi-lo != len(slots)-1 {
			t.Errorf("layer %d slots %v not contiguous", layer, slots)
		}
	}
}

// transferCost is the reference pricing of one layer permutation: place
// groups in zig-zag sequence and sum hop-weighted bytes of every on-chip
// dependency fetch. permCost over the cost table must equal it.
func (m *Mapper) transferCost(groups []group, perm []int, locate Locator) int64 {
	engineOf := make(map[int]int, len(groups)*2)
	slot := 0
	for _, gi := range perm {
		for _, id := range groups[gi].atoms {
			engineOf[id] = m.zigzag[slot]
			slot++
		}
	}
	var cost int64
	for _, gi := range perm {
		for _, id := range groups[gi].atoms {
			dst := engineOf[id]
			a := m.dag.Atoms[id]
			for di, dep := range a.Deps {
				src := locate(dep)
				if src < 0 || src == dst {
					continue
				}
				cost += a.DepBytes[di] * int64(m.mesh.Hops(src, dst))
			}
		}
	}
	return cost
}

// TestCostTableMatchesTransferCost pins the dense permutation evaluator
// (buildCostTable + permCost) to the reference transferCost walk on every
// permutation of a multi-group Round, so the search ranks permutations
// identically and placements stay bit-for-bit reproducible.
func TestCostTableMatchesTransferCost(t *testing.T) {
	d, prev, cur := fig7DAG(t)
	mesh := noc.NewMesh(3, 3, 8) // 9 slots: fits the 9-atom synthetic Round
	m := New(mesh, d)
	r0 := m.PlaceRound(prev, func(int) int { return -1 })
	locate := r0.Engine
	// Synthetic 3-group Round: cur holds one group per layer after
	// grouping, so extend it with prev's layers for a multi-group case.
	round := append(append([]int(nil), cur...), prev...)
	groups := m.groupByLayer(round)
	if len(groups) < 3 {
		t.Fatalf("want >= 3 groups, got %d", len(groups))
	}
	m.buildCostTable(groups, locate)
	perm := make([]int, len(groups))
	for i := range perm {
		perm[i] = i
	}
	permute(perm, func(p []int) {
		want := m.transferCost(groups, p, locate)
		if got := m.permCost(p); got != want {
			t.Fatalf("perm %v: permCost = %d, transferCost = %d", p, got, want)
		}
	})
}

// TestPlaceRoundScratchReuse checks that back-to-back placements on one
// Mapper (the per-Round reuse path) match placements on fresh Mappers.
func TestPlaceRoundScratchReuse(t *testing.T) {
	d, prev, cur := fig7DAG(t)
	mesh := noc.NewMesh(3, 2, 8)
	shared := New(mesh, d)
	none := func(int) int { return -1 }
	for round := 0; round < 2; round++ {
		atoms := prev
		if round == 1 {
			atoms = cur
		}
		got := shared.PlaceRound(atoms, none)
		want := New(mesh, d).PlaceRound(atoms, none)
		if got.ByteHops != want.ByteHops || got.NumPlaced() != want.NumPlaced() {
			t.Fatalf("round %d: reused mapper differs: %+v vs %+v", round, got, want)
		}
		for _, id := range want.Placed() {
			if got.Engine(id) != want.Engine(id) {
				t.Fatalf("round %d: atom %d on engine %d, want %d", round, id, got.Engine(id), want.Engine(id))
			}
		}
	}
}

func TestHillClimbManyGroups(t *testing.T) {
	// More than maxExhaustive layer groups triggers hill climbing; the
	// result must still be a valid injective placement.
	g := graph.New("many")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 8, Wo: 8, Co: 4})
	var layers []int
	for i := 0; i < 9; i++ {
		layers = append(layers, g.AddLayer(
			"l"+string(rune('a'+i)), graph.OpConv,
			graph.ConvShape(8, 8, 4, 4, 1, 1, 0), in))
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	d, err := atom.Build(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh := noc.NewMesh(3, 3, 8)
	m := New(mesh, d)
	var round []int
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			round = append(round, a.ID)
		}
	}
	res := m.PlaceRound(round, func(int) int { return -1 })
	if res.NumPlaced() != 9 {
		t.Fatalf("placed %d atoms, want 9", res.NumPlaced())
	}
	seen := make(map[int]bool)
	for _, id := range res.Placed() {
		e := res.Engine(id)
		if seen[e] {
			t.Fatal("duplicate engine assignment")
		}
		seen[e] = true
	}
}

// byteHopsRef prices a placement by walking every placed atom's
// dependencies, independently of the Mapper's cost rows.
func byteHopsRef(mesh *noc.Mesh, d *atom.DAG, res Result, locate Locator) int64 {
	var cost int64
	for _, id := range res.Placed() {
		dst := res.Engine(id)
		a := d.Atoms[id]
		for di, dep := range a.Deps {
			if src := locate(dep); src >= 0 && src != dst {
				cost += a.DepBytes[di] * int64(mesh.Hops(src, dst))
			}
		}
	}
	return cost
}

// unsharedCopy deep-copies a DAG's atoms with every atom owning fresh
// Deps/DepBytes slices, so no two atoms share a dependency window.
func unsharedCopy(d *atom.DAG) *atom.DAG {
	cp := *d
	cp.Atoms = make([]*atom.Atom, len(d.Atoms))
	for i, a := range d.Atoms {
		b := *a
		b.Deps = append([]int(nil), a.Deps...)
		b.DepBytes = append([]int64(nil), a.DepBytes...)
		cp.Atoms[i] = &b
	}
	return &cp
}

// TestSharedRowsMatchUnshared places every Round of the resnet50 and
// nasnet default-profile DP schedules on the built DAG, whose dense
// channel tiles share dependency windows and so cost rows, and on an
// unshared deep copy that prices every atom's row from its own deps. Two
// in three dependencies reside where the Round that produced them placed
// them, the rest in DRAM, and a pseudo-random weight locator drives the
// refinement and placementCost. Both Mappers must agree on every Engine,
// Placed, ByteHops and Perms, and ByteHops must equal a walk over the
// placed atoms' dependencies.
func TestSharedRowsMatchUnshared(t *testing.T) {
	mesh := noc.NewMesh(8, 8, 32)
	for _, model := range []string{"resnet50", "nasnet"} {
		g := models.MustBuild(model)
		res := anneal.SA(g, engine.Default(), engine.KCPartition,
			anneal.Options{MaxIters: 600, Seed: 1, MaxTilesPerLay: 1024})
		d, err := atom.Build(g, 1, res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := schedule.Build(d, schedule.Options{
			Engines: mesh.Engines(), EngineCfg: engine.Default(), Dataflow: engine.KCPartition,
		})
		if err != nil {
			t.Fatal(err)
		}
		shared, unshared := New(mesh, d), New(mesh, unsharedCopy(d))
		engineOf := make([]int, d.NumAtoms())
		for i := range engineOf {
			engineOf[i] = -1
		}
		locate := func(id int) int {
			if id%3 == 0 {
				return -1 // evicted to DRAM
			}
			return engineOf[id]
		}
		weights := func(e, id int) bool { return (e*7919+id*31)%5 == 0 }
		reused := 0
		for ri, round := range sched.Rounds {
			got := shared.PlaceRoundWeighted(round.Atoms, locate, weights)
			want := unshared.PlaceRoundWeighted(round.Atoms, locate, weights)
			if got.ByteHops != want.ByteHops || got.Perms != want.Perms ||
				!slices.Equal(got.Placed(), want.Placed()) {
				t.Fatalf("%s round %d: shared (%d B·hops, %d perms, %v), unshared (%d, %d, %v)",
					model, ri, got.ByteHops, got.Perms, got.Placed(), want.ByteHops, want.Perms, want.Placed())
			}
			if ref := byteHopsRef(mesh, d, got, locate); got.ByteHops != ref {
				t.Fatalf("%s round %d: ByteHops %d, dependency walk gives %d", model, ri, got.ByteHops, ref)
			}
			rows := map[int32]bool{}
			for _, id := range round.Atoms {
				if got.Engine(id) != want.Engine(id) {
					t.Fatalf("%s round %d atom %d: engine %d, unshared %d", model, ri, id, got.Engine(id), want.Engine(id))
				}
				engineOf[id] = got.Engine(id)
				rows[shared.rowOf[id]] = true
			}
			reused += len(round.Atoms) - len(rows)
			shared.Recycle(&got)
			unshared.Recycle(&want)
		}
		if reused == 0 {
			t.Fatalf("%s: no Round reused a cost row", model)
		}
		t.Logf("%s: %d of %d atom rows reused", model, reused, d.NumAtoms())
	}
}
