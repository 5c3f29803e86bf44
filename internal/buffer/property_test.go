package buffer

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// TestCapacityInvariantProperty replays random configurations and checks
// the core safety property of Algorithm 3 — no engine's resident bytes
// ever exceed its capacity — plus exact occupancy accounting after every
// Round (see checkResidency).
func TestCapacityInvariantProperty(t *testing.T) {
	g := models.MustBuild("tinyresnet")
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 2, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 4, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	f := func(capRaw uint16) bool {
		capacity := int64(capRaw)*64 + 512 // 512 B .. ~4.2 MB
		m, err := New(d, s, 4, capacity)
		if err != nil {
			return false
		}
		for rt := range s.Rounds {
			p := make(PlacementMap)
			for i, id := range s.Rounds[rt].Atoms {
				p[id] = i
			}
			if _, err := m.ExecuteRound(rt, p); err != nil {
				return false
			}
			for e := 0; e < 4; e++ {
				if m.Used(e) > capacity {
					return false
				}
			}
			if err := checkResidency(m); err != nil {
				t.Logf("capacity %d, round %d: %v", capacity, rt, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// checkResidency verifies the Manager's bookkeeping: Used(e) is the sum
// of engine e's resident entries, every atom Locate reports on-chip is
// buffered on that engine, and the weight holder sets match the
// per-engine weight lists.
func checkResidency(m *Manager) error {
	entries, bitsSet := 0, 0
	for e := 0; e < m.engines; e++ {
		entries += len(m.wts[e])
		var sum int64
		for _, o := range m.outs[e] {
			sum += o.bytes
			if m.resident[o.atom] != e {
				return fmt.Errorf("atom %d buffered on engine %d but Locate = %d", o.atom, e, m.resident[o.atom])
			}
		}
		for _, w := range m.wts[e] {
			sum += w.bytes
			if !m.holds(int(w.slice), e) {
				return fmt.Errorf("slice %d buffered on engine %d but not in its holder set", w.slice, e)
			}
		}
		if sum != m.Used(e) {
			return fmt.Errorf("engine %d: Used = %d, resident entries sum to %d", e, m.Used(e), sum)
		}
	}
	for id := range m.resident {
		e := m.Locate(id)
		if e < 0 {
			continue
		}
		if p := int(m.outPos[id]); p >= len(m.outs[e]) || int(m.outs[e][p].atom) != id {
			return fmt.Errorf("Locate(%d) = %d but engine %d does not buffer it", id, e, e)
		}
	}
	for w, n := range m.nholders {
		held := 0
		for e := 0; e < m.engines; e++ {
			if m.holds(w, e) {
				held++
			}
		}
		if held != int(n) {
			return fmt.Errorf("slice %d: %d holder bits, count says %d", w, held, n)
		}
		bitsSet += held
	}
	if bitsSet != entries {
		return fmt.Errorf("%d holder bits for %d buffered weight slices", bitsSet, entries)
	}
	return nil
}

// TestConservationProperty: for any capacity, the bytes a consumer reads
// (on-chip + DRAM) must cover every dependency edge exactly once — data
// is never silently dropped or double-counted.
func TestConservationProperty(t *testing.T) {
	g := models.MustBuild("tinybranch")
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 2, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 4, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	var wantInput int64
	for _, a := range d.Atoms {
		for _, b := range a.DepBytes {
			wantInput += b
		}
	}
	f := func(capRaw uint16) bool {
		capacity := int64(capRaw)*128 + 1024
		m, err := New(d, s, 4, capacity)
		if err != nil {
			return false
		}
		var total int64
		for rt := range s.Rounds {
			p := make(PlacementMap)
			for i, id := range s.Rounds[rt].Atoms {
				p[id] = i
			}
			io, err := m.ExecuteRound(rt, p)
			if err != nil {
				return false
			}
			total += io.InputBytesTotal
			if io.InputBytesOnChip > io.InputBytesTotal {
				return false
			}
		}
		return total == wantInput
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWriteOnceProperty: an atom's output is written back to DRAM at most
// once regardless of how many times eviction pressure hits it.
func TestWriteOnceProperty(t *testing.T) {
	g := models.MustBuild("tinyconv")
	res := anneal.SA(g, engine.Default(), engine.KCPartition, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, 3, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{Engines: 2, Mode: schedule.Greedy,
		EngineCfg: engine.Default(), Dataflow: engine.KCPartition})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny buffer maximizes eviction churn.
	m, err := New(d, s, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for rt := range s.Rounds {
		p := make(PlacementMap)
		for i, id := range s.Rounds[rt].Atoms {
			p[id] = i
		}
		io, err := m.ExecuteRound(rt, p)
		if err != nil {
			t.Fatal(err)
		}
		for e := range io.DRAMWriteBytes {
			written += io.DRAMWriteBytes[e]
		}
	}
	// Upper bound: every atom written exactly once.
	var allOut int64
	for _, a := range d.Atoms {
		allOut += a.OutputBytes()
	}
	if written > allOut {
		t.Errorf("wrote %d bytes > one copy of all outputs (%d)", written, allOut)
	}
}
