package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// This file keeps the original map-based buffer manager as the test
// oracle of the dense Manager: TestManagerMatchesReference replays both
// side by side and requires identical IO, eviction counts and queries
// after every Round. It is the executable specification of Algorithm 3's
// replay; only its data structures differ from Manager's.

// entryKind distinguishes buffered tensors.
type entryKind int

const (
	kindOutput entryKind = iota // an atom's produced ofmap tile
	kindWeight                  // a layer's weight slice for one co-range
)

// entry is one resident tensor in an engine's buffer.
type entry struct {
	kind  entryKind
	atom  int  // for kindOutput
	wkey  wkey // for kindWeight
	bytes int64
}

// wkeyLess orders weight keys by (layer, c0, c1) — the deterministic
// tie-break used when ranking eviction candidates.
func wkeyLess(a, b wkey) bool {
	if a.layer != b.layer {
		return a.layer < b.layer
	}
	if a.c0 != b.c0 {
		return a.c0 < b.c0
	}
	return a.c1 < b.c1
}

// refManager replays a schedule against the distributed buffers with
// per-engine maps of heap entries and map-based holder sets.
type refManager struct {
	dag      *atom.DAG
	sched    *schedule.Schedule
	engines  int
	capacity int64

	resident  []int            // atom ID -> engine holding its output, -1 if off-chip/absent
	written   []bool           // atom ID -> a copy exists in DRAM
	buffers   []map[int]*entry // per engine: atomID -> output entry
	wbuffers  []map[wkey]*entry
	wholders  map[wkey]map[int]bool // weight slice -> engines caching it
	used      []int64
	round     int
	consRound [][]int32        // atom ID -> sorted consumer round list
	wRounds   map[wkey][]int32 // weight key -> sorted rounds where used

	evictions int64
	highWater int64 // largest bytes any engine's buffer ever held
}

// newReference builds a refManager for the DAG and schedule on `engines`
// buffers of capacityBytes each.
func newReference(d *atom.DAG, s *schedule.Schedule, engines int, capacityBytes int64) (*refManager, error) {
	if engines <= 0 || capacityBytes <= 0 {
		return nil, fmt.Errorf("buffer: engines=%d capacity=%d", engines, capacityBytes)
	}
	n := d.NumAtoms()
	m := &refManager{
		dag: d, sched: s, engines: engines, capacity: capacityBytes,
		resident:  make([]int, n),
		written:   make([]bool, n),
		buffers:   make([]map[int]*entry, engines),
		wbuffers:  make([]map[wkey]*entry, engines),
		wholders:  make(map[wkey]map[int]bool),
		used:      make([]int64, engines),
		consRound: make([][]int32, n),
		wRounds:   make(map[wkey][]int32),
	}
	for i := range m.resident {
		m.resident[i] = -1
	}
	for e := 0; e < engines; e++ {
		m.buffers[e] = make(map[int]*entry)
		m.wbuffers[e] = make(map[wkey]*entry)
	}
	// Consumer-round lists (for Algorithm 3's t_next search) and weight
	// usage rounds.
	for _, a := range d.Atoms {
		r := s.AtomRound[a.ID]
		if r < 0 {
			continue // virtual input atom
		}
		for _, dep := range a.Deps {
			m.consRound[dep] = append(m.consRound[dep], int32(r))
		}
		if wk, ok := weightKeyOf(a); ok {
			m.wRounds[wk] = append(m.wRounds[wk], int32(r))
		}
	}
	for i := range m.consRound {
		slices.Sort(m.consRound[i])
	}
	for k := range m.wRounds {
		slices.Sort(m.wRounds[k])
	}
	return m, nil
}

// Locate reports the engine currently holding atom id's output (-1 when
// off-chip).
func (m *refManager) Locate(id int) int { return m.resident[id] }

// HasWeights reports whether engine e currently caches the weight slice
// atom id requires (true when the atom needs no weights).
func (m *refManager) HasWeights(e, id int) bool {
	wk, ok := weightKeyOf(m.dag.Atoms[id])
	return !ok || m.wholders[wk][e]
}

// Evictions returns the cumulative number of overflow write-backs.
func (m *refManager) Evictions() int64 { return m.evictions }

// HighWater returns the largest byte count any engine's buffer held.
func (m *refManager) HighWater() int64 { return m.highWater }

// ExecuteRound replays Round t with the given atom placement and returns
// its IO. Rounds must be executed in order starting from 0.
func (m *refManager) ExecuteRound(t int, placement Placement) (RoundIO, error) {
	var io RoundIO
	if t != m.round {
		return io, fmt.Errorf("buffer: ExecuteRound(%d) out of order, want %d", t, m.round)
	}
	m.round++
	io.reset(m.engines)
	roundAtoms := m.sched.Rounds[t].Atoms
	// Streamed (uncacheable) weight slices fetched from DRAM are still
	// broadcast on-chip within the Round: the first engine reads HBM and
	// forwards to later engines needing the same slice.
	streamedBy := make(map[wkey]int)
	// Phase 1: fetch inputs and weights for every atom in the Round.
	for _, id := range roundAtoms {
		e := placement.Engine(id)
		if e < 0 || e >= m.engines {
			return io, fmt.Errorf("buffer: atom %d has no valid placement", id)
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
		if wk, ok := weightKeyOf(a); ok {
			bytes := a.Task.WeightBytes()
			switch {
			case m.wbuffers[e][wk] != nil:
				// Local copy.
				io.SRAMReadBytes[e] += bytes
			case len(m.wholders[wk]) > 0:
				// Another engine caches the slice: forward over the NoC
				// instead of re-reading HBM (7 pJ/bit vs 0.61 pJ/bit/hop).
				src := refNearestHolder(m.wholders[wk], e)
				io.Flows = append(io.Flows, Flow{Src: src, Dst: e, Bytes: bytes, Tag: wk.tag()})
				io.SRAMReadBytes[src] += bytes
				io.SRAMWriteBytes[e] += bytes
				m.store(e, &entry{kind: kindWeight, wkey: wk, bytes: bytes}, t, &io)
			case streamedBy[wk] != 0:
				// Broadcast of a streamed slice within this Round.
				src := streamedBy[wk] - 1
				io.Flows = append(io.Flows, Flow{Src: src, Dst: e, Bytes: bytes, Tag: wk.tag()})
				io.SRAMReadBytes[src] += bytes
				io.SRAMWriteBytes[e] += bytes
			default:
				io.DRAMReadBytes[e] += bytes
				streamedBy[wk] = e + 1
				m.store(e, &entry{kind: kindWeight, wkey: wk, bytes: bytes}, t, &io)
			}
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
		a := m.dag.Atoms[id]
		out := a.OutputBytes()
		io.SRAMWriteBytes[e] += out
		if m.lastUse(id) < 0 {
			// Final outputs (no consumers) stream to DRAM.
			io.DRAMWriteBytes[e] += out
			m.written[id] = true
			continue
		}
		if out > m.capacity {
			// Cannot ever fit: spill directly.
			io.DRAMWriteBytes[e] += out
			m.written[id] = true
			continue
		}
		if m.store(e, &entry{kind: kindOutput, atom: id, bytes: out}, t, &io) {
			m.resident[id] = e
		}
	}
	return io, nil
}

// store inserts an entry into engine e's buffer, evicting per Algorithm 3
// until it fits, and reports whether it was buffered. Entries that could never pay for the evictions they force
// are not cached: weight slices above three quarters of the buffer stream through
// (their per-pass window is tiny), and outputs above the full capacity
// spill directly — without this guard a single oversized tensor would
// write back an entire buffer of useful ofmaps and still not fit.
func (m *refManager) store(e int, ent *entry, t int, io *RoundIO) bool {
	if (ent.kind == kindWeight && ent.bytes > m.capacity*3/4) ||
		(ent.kind == kindOutput && ent.bytes > m.capacity) {
		if ent.kind == kindOutput {
			io.DRAMWriteBytes[e] += ent.bytes
			m.written[ent.atom] = true
		}
		return false
	}
	for m.used[e]+ent.bytes > m.capacity {
		if !m.evictOne(e, t, io) {
			// Nothing evictable (pathological tiny buffer): spill the
			// new entry itself.
			if ent.kind == kindOutput {
				io.DRAMWriteBytes[e] += ent.bytes
				m.written[ent.atom] = true
			}
			return false
		}
	}
	m.used[e] += ent.bytes
	if m.used[e] > m.highWater {
		m.highWater = m.used[e]
	}
	if ent.kind == kindOutput {
		m.buffers[e][ent.atom] = ent
	} else {
		m.wbuffers[e][ent.wkey] = ent
		h := m.wholders[ent.wkey]
		if h == nil {
			h = make(map[int]bool)
			m.wholders[ent.wkey] = h
		}
		h[e] = true
	}
	return true
}

// refNearestHolder picks the holder with the smallest index distance to e —
// a mesh-free proximity proxy (engine indices are row-major, so close
// indices are close on the mesh).
func refNearestHolder(holders map[int]bool, e int) int {
	best, bestD := -1, 1<<30
	for h := range holders {
		d := h - e
		if d < 0 {
			d = -d
		}
		if d < bestD || (d == bestD && h < best) {
			best, bestD = h, d
		}
	}
	return best
}

// evictOne applies Algorithm 3 to engine e: release any entry with no
// future use; otherwise write back the entry with the largest invalid
// occupation (t_next − t) × size. Returns false if the buffer is empty.
//
// Candidates are ranked by an explicit total order — dead entries by
// smallest key, live victims by (occupation, kind, key) — never by map
// iteration order. Eviction choices shape DRAM traffic and flows, so
// letting Go's randomized map walk break ties would make whole Reports
// vary run to run.
func (m *refManager) evictOne(e, t int, io *RoundIO) bool {
	var victim *entry
	var victimOcc int64 = -1
	// Pass 1: free entries with no future use (paper line 8-12). The
	// current Round t still counts as a future use: eviction can run
	// mid-Round, before every fetch of Round t has been served, so
	// entries consumed this Round get occupation 0 (kept if possible)
	// rather than being dropped as dead.
	deadAtom := -1
	for id, ent := range m.buffers[e] {
		tn := m.nextUse(id, t-1)
		if tn < 0 {
			if deadAtom < 0 || id < deadAtom {
				deadAtom = id
			}
			continue
		}
		occ := int64(tn-t) * ent.bytes
		if occ > victimOcc || (occ == victimOcc && ent.atom < victim.atom) {
			victimOcc, victim = occ, ent
		}
	}
	if deadAtom >= 0 {
		m.release(e, deadAtom)
		return true
	}
	var deadW wkey
	haveDeadW := false
	for wk, ent := range m.wbuffers[e] {
		tn := m.nextWeightUse(wk, t-1)
		if tn < 0 {
			if !haveDeadW || wkeyLess(wk, deadW) {
				deadW, haveDeadW = wk, true
			}
			continue
		}
		// Weights are immutable in DRAM: evicting one costs a refetch but
		// no write-back, and the global reuse-round estimate is
		// optimistic (the next user may be another engine entirely), so
		// weight entries are biased toward eviction over dirty ofmaps.
		// On an occupation tie a dirty ofmap victim is kept over a weight
		// victim for the same reason.
		occ := 2 * int64(tn-t) * ent.bytes
		if occ > victimOcc ||
			(occ == victimOcc && victim.kind == kindWeight && wkeyLess(wk, victim.wkey)) {
			victimOcc, victim = occ, ent
		}
	}
	if haveDeadW {
		m.releaseWeight(e, deadW)
		return true
	}
	if victim == nil {
		return false
	}
	// Pass 2: write back the worst occupier.
	if victim.kind == kindOutput {
		if !m.written[victim.atom] {
			io.DRAMWriteBytes[e] += victim.bytes
			m.written[victim.atom] = true
		}
		m.release(e, victim.atom)
	} else {
		// Weights are immutable in DRAM: dropping is free.
		m.releaseWeight(e, victim.wkey)
	}
	m.evictions++
	return true
}

func (m *refManager) release(e, id int) {
	if ent, ok := m.buffers[e][id]; ok {
		m.used[e] -= ent.bytes
		delete(m.buffers[e], id)
		m.resident[id] = -1
	}
}

func (m *refManager) releaseWeight(e int, wk wkey) {
	if ent, ok := m.wbuffers[e][wk]; ok {
		m.used[e] -= ent.bytes
		delete(m.wbuffers[e], wk)
		if h := m.wholders[wk]; h != nil {
			delete(h, e)
		}
	}
}

// nextUse returns the earliest Round strictly after t that consumes atom
// id, or -1 if none remains.
func (m *refManager) nextUse(id, t int) int {
	lst := m.consRound[id]
	i := sort.Search(len(lst), func(i int) bool { return int(lst[i]) > t })
	if i == len(lst) {
		return -1
	}
	return int(lst[i])
}

// lastUse returns the final consuming Round of atom id, or -1 if none.
func (m *refManager) lastUse(id int) int {
	lst := m.consRound[id]
	if len(lst) == 0 {
		return -1
	}
	return int(lst[len(lst)-1])
}

// nextWeightUse returns the earliest Round strictly after t using the
// weight slice, or -1.
func (m *refManager) nextWeightUse(wk wkey, t int) int {
	lst := m.wRounds[wk]
	i := sort.Search(len(lst), func(i int) bool { return int(lst[i]) > t })
	if i == len(lst) {
		return -1
	}
	return int(lst[i])
}

// Used returns the bytes currently resident in engine e's buffer.
func (m *refManager) Used(e int) int64 { return m.used[e] }

// refCase is one side-by-side replay of TestManagerMatchesReference.
type refCase struct {
	model  string
	batch  int
	side   int   // mesh side (side x side engines)
	capDiv int64 // divides the default buffer capacity
	crowd  bool  // place atoms at random on a few engines instead of mapping them
	evicts bool  // the replay must write back live entries
}

// TestManagerMatchesReference replays Manager and refManager side by side
// on real schedules, placed by the simulator's mapper, and checks after
// every Round that the RoundIOs (per-engine bytes, Flows in emission
// order, reuse totals), eviction counts, occupancy, Locate and
// HasWeights agree. Shrunken buffers (down to 512 B) exercise the
// eviction ranking, batch 2 gives weight slices later reuses to rank,
// and a 16x16 mesh spreads the weight holder sets over several words.
// Crowded cases pile a Round's atoms onto a few engines at random, which
// fills buffers with same-sized slices and outputs and so exercises the
// eviction and nearest-holder tie-breaks. One Manager is Reset across
// all cases, so pooled reuse is covered too.
func TestManagerMatchesReference(t *testing.T) {
	cases := []refCase{
		{model: "resnet50", batch: 1, side: 8, capDiv: 1},
		{model: "nasnet", batch: 1, side: 8, capDiv: 1, evicts: true},
		{model: "vgg19", batch: 1, side: 8, capDiv: 1, evicts: true},
		{model: "tinyresnet", batch: 1, side: 8, capDiv: 64},
		{model: "tinyresnet", batch: 1, side: 8, capDiv: 256, evicts: true},
		{model: "resnet50", batch: 1, side: 8, capDiv: 64, evicts: true},
		{model: "resnet50", batch: 1, side: 16, capDiv: 1},
		{model: "resnet1001", batch: 1, side: 8, capDiv: 1, evicts: true},
		{model: "resnet50", batch: 2, side: 8, capDiv: 1, evicts: true},
		{model: "tinyresnet", batch: 1, side: 4, capDiv: 64, crowd: true, evicts: true},
		{model: "resnet50", batch: 1, side: 4, capDiv: 16, crowd: true, evicts: true},
	}
	var m *Manager
	for _, c := range cases {
		name := fmt.Sprintf("%s/b%d/%dx%d/cap÷%d", c.model, c.batch, c.side, c.side, c.capDiv)
		if c.crowd {
			name += "/crowded"
		}
		t.Run(name, func(t *testing.T) {
			if c.model == "resnet1001" && testing.Short() {
				t.Skip("resnet1001 replay skipped in -short mode")
			}
			m = matchReference(t, m, c)
		})
	}
}

// defaultProfile runs the default-profile search (SA seed 1, 600
// iterations, 1024 tiles per layer) and builds the DAG and the default
// Round schedule for `engines` engines.
func defaultProfile(t *testing.T, model string, batch, engines int) (*atom.DAG, *schedule.Schedule) {
	t.Helper()
	g := models.MustBuild(model)
	hw := engine.Default()
	orc := cost.NewMemo(cost.Direct{})
	res := anneal.SA(g, hw, engine.KCPartition, anneal.Options{MaxIters: 600, Seed: 1, Oracle: orc})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: engines, EngineCfg: hw, Dataflow: engine.KCPartition, Oracle: orc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// matchReference runs one refCase, reusing m (nil: allocate) for the
// dense side, and returns the Manager for the next case.
func matchReference(t *testing.T, m *Manager, c refCase) *Manager {
	mesh := noc.NewMesh(c.side, c.side, 32)
	n := mesh.Engines()
	d, s := defaultProfile(t, c.model, c.batch, n)
	capacity := int64(engine.Default().BufferBytes) / c.capDiv
	if m == nil {
		var err error
		if m, err = New(d, s, n, capacity); err != nil {
			t.Fatal(err)
		}
	} else if err := m.Reset(d, s, n, capacity); err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(d, s, n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	mapper := mapping.New(mesh, d)
	rng := rand.New(rand.NewSource(1))
	var io RoundIO
	for rt, round := range s.Rounds {
		for _, id := range round.Atoms {
			for e := 0; e < n; e++ {
				if got, want := m.HasWeights(e, id), ref.HasWeights(e, id); got != want {
					t.Fatalf("round %d: HasWeights(%d, %d) = %v, want %v", rt, e, id, got, want)
				}
			}
		}
		placed := mapper.PlaceRoundWeighted(round.Atoms, m.Locate, m.HasWeights)
		var p Placement = &placed
		if c.crowd {
			crowd := PlacementMap{}
			for _, id := range round.Atoms {
				crowd[id] = rng.Intn(min(n, 3))
			}
			p = crowd
		}
		if err := m.ExecuteRoundInto(rt, p, &io); err != nil {
			t.Fatal(err)
		}
		want, err := ref.ExecuteRound(rt, p)
		if err != nil {
			t.Fatal(err)
		}
		mapper.Recycle(&placed)
		if msg := diffIO(io, want); msg != "" {
			t.Fatalf("round %d: %s", rt, msg)
		}
		if m.Evictions() != ref.Evictions() || m.HighWater() != ref.HighWater() {
			t.Fatalf("round %d: evictions/high-water %d/%d, want %d/%d", rt,
				m.Evictions(), m.HighWater(), ref.Evictions(), ref.HighWater())
		}
		for e := 0; e < n; e++ {
			if m.Used(e) != ref.Used(e) {
				t.Fatalf("round %d: Used(%d) = %d, want %d", rt, e, m.Used(e), ref.Used(e))
			}
		}
		for _, id := range round.Atoms {
			for _, dep := range append([]int{id}, d.Atoms[id].Deps...) {
				if m.Locate(dep) != ref.Locate(dep) {
					t.Fatalf("round %d: Locate(%d) = %d, want %d", rt, dep, m.Locate(dep), ref.Locate(dep))
				}
			}
		}
	}
	if c.evicts && m.Evictions() == 0 {
		t.Error("no live evictions: the eviction ranking went unexercised")
	}
	return m
}

// diffIO describes the first difference between two RoundIOs ("" if none).
func diffIO(got, want RoundIO) string {
	for _, f := range []struct {
		name      string
		got, want []int64
	}{
		{"DRAMReadBytes", got.DRAMReadBytes, want.DRAMReadBytes},
		{"DRAMWriteBytes", got.DRAMWriteBytes, want.DRAMWriteBytes},
		{"SRAMReadBytes", got.SRAMReadBytes, want.SRAMReadBytes},
		{"SRAMWriteBytes", got.SRAMWriteBytes, want.SRAMWriteBytes},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if !slices.Equal(got.Flows, want.Flows) {
		return fmt.Sprintf("Flows differ: %d vs %d flows", len(got.Flows), len(want.Flows))
	}
	if got.InputBytesTotal != want.InputBytesTotal || got.InputBytesOnChip != want.InputBytesOnChip {
		return fmt.Sprintf("input bytes %d/%d, want %d/%d", got.InputBytesTotal,
			got.InputBytesOnChip, want.InputBytesTotal, want.InputBytesOnChip)
	}
	return ""
}
