// Package sim is the event-driven system simulator of the scalable
// accelerator (paper Sec. V-A): it executes a Round schedule with an
// atom-engine mapping against the engine, NoC, DRAM, buffer and energy
// models, and reports execution time, utilization, NoC-blocked fraction,
// on-chip reuse ratio, DRAM traffic and the energy breakdown.
//
// Rounds are barrier-synchronized (Sec. III). Within a Round the simulator
// is event-driven at flow granularity: DRAM requests queue on HBM channels,
// NoC flows serialize on shared mesh links along their XY routes, and each
// engine starts computing when its last input arrives. Eviction write-backs
// post to the HBM write queue without blocking the Round (write-buffer
// semantics), but they do delay later reads through channel occupancy.
package sim

import (
	"context"
	"fmt"
	"sort"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/energy"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// Config assembles the hardware models.
type Config struct {
	Mesh     *noc.Mesh
	Engine   engine.Config
	Dataflow engine.Dataflow
	DRAM     dram.Config
	Energy   energy.Model

	// BufferBytes overrides the per-engine buffer capacity used by the
	// buffer manager (default Engine.BufferBytes).
	BufferBytes int64
	// DoubleBuffer overlaps a Round's DRAM fetches with the previous
	// Round's compute (default true via DefaultConfig).
	DoubleBuffer bool
	// NaiveMapping places Rounds in plain zig-zag order without the
	// TransferCost permutation search or weight-affinity refinement —
	// the placement a reuse-oblivious runtime (e.g. Rammer) would use.
	NaiveMapping bool
	// Trace, when non-nil, receives one RoundTrace per executed Round
	// (see internal/trace for exporters).
	Trace func(RoundTrace)
	// Oracle prices atoms (default: a fresh memoized oracle per Run).
	// Pass one shared oracle across the annealer, scheduler, baselines and
	// simulator so identical tasks are evaluated once for the whole run.
	Oracle cost.Oracle
	// Metrics, when non-nil, receives the run's counters and histograms:
	// per-engine busy/idle cycles, barrier waits, per-link NoC traffic,
	// DRAM row hits/queueing, buffer occupancy and the cost-oracle cache
	// (see internal/obs). The nil default adds one predicted-not-taken
	// branch per Round — nothing on the flow hot path (pinned by
	// BenchmarkSimRun).
	Metrics *obs.Registry

	// Ctx, when non-nil, lets callers abandon a simulation: Run polls it
	// between Rounds and returns the context's error once cancelled. An
	// uncancelled context never changes the Report produced.
	Ctx context.Context
}

// AtomTrace records one atom's execution within a Round.
type AtomTrace struct {
	Atom   int
	Layer  int
	Sample int
	Engine int
	Cycles int64 // compute cycles on its engine
}

// RoundTrace records the timing of one Round for trace exporters.
type RoundTrace struct {
	Round      int
	Start, End int64 // absolute cycles
	ComputeEnd int64 // end if neither NoC nor DRAM ever blocked
	Atoms      []AtomTrace
	Flows      int
	DRAMRead   int64
	DRAMWrite  int64

	// Full-span lanes (Perfetto export): the DRAM prefetch window and
	// the Round end with NoC contention excluded, so exporters can draw
	// distinct DRAM-block [ComputeEnd, DRAMEnd] and NoC-block
	// [DRAMEnd, End] spans plus a DRAM read lane [DRAMIssue, DRAMReady].
	DRAMEnd   int64 // end if the NoC never blocked (compute + DRAM only)
	DRAMIssue int64 // cycle the Round's DRAM reads were issued (prefetch)
	DRAMReady int64 // cycle the last engine's DRAM data arrived
	FlowBytes int64 // Σ bytes of the Round's on-chip flows
}

// DefaultConfig returns the paper's 8x8-engine system (Sec. V-A). Mesh
// links carry 32 B/cycle (256-bit channels at 500 MHz = 16 GB/s per link),
// the common width for tensor-engine meshes.
func DefaultConfig() Config {
	return Config{
		Mesh:         noc.NewMesh(8, 8, 32),
		Engine:       engine.Default(),
		Dataflow:     engine.KCPartition,
		DRAM:         dram.Default(),
		Energy:       energy.Default(),
		DoubleBuffer: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Mesh == nil {
		return fmt.Errorf("sim: nil mesh")
	}
	if c.BufferBytes < 0 {
		return fmt.Errorf("sim: negative BufferBytes %d", c.BufferBytes)
	}
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// UsableBufferBytes returns the per-engine buffer capacity in effect:
// the BufferBytes override when set, else the engine's configured SRAM.
func (c Config) UsableBufferBytes() int64 {
	if c.BufferBytes > 0 {
		return c.BufferBytes
	}
	return int64(c.Engine.BufferBytes)
}

// Report is the simulation outcome.
type Report struct {
	Cycles        int64   // total execution cycles
	TimeMS        float64 // Cycles at the engine clock
	Rounds        int
	ComputeCycles int64 // Σ per-Round slowest compute (memory-free time)

	NoCBlockedCycles  int64 // added by on-chip transfer waits
	DRAMBlockedCycles int64 // added by off-chip access waits

	MACs             int64
	PEUtilization    float64 // MACs / (Cycles x total PEs) — end-to-end
	ComputeUtil      float64 // MACs / (ComputeCycles x total PEs) — w/o memory delay
	DRAMReadBytes    int64
	DRAMWriteBytes   int64
	NoCByteHops      int64
	OnChipReuseRatio float64 // fraction of input bytes served from distributed buffers
	Evictions        int64

	Energy energy.Breakdown
}

// NoCOverheadFraction returns the share of total time the NoC blocks
// computation (Table II row "NoC Overhead").
func (r Report) NoCOverheadFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.NoCBlockedCycles) / float64(r.Cycles)
}

// Run simulates the schedule on the configured hardware.
//
// The Round loop is a two-stage software pipeline (see pipeline.go):
// for a multi-Round schedule, round t+1's placement and buffer replay
// run on a second goroutine while round t is timed, and the
// mapper/buffer-manager/arena trio is pooled across Run calls keyed by
// mesh shape. Neither changes the Report by a single bit — pinned
// against RunSerial by TestSimPipelineParity and by the golden and zoo
// digest tests.
func Run(d *atom.DAG, s *schedule.Schedule, cfg Config) (Report, error) {
	return run(d, s, cfg, true)
}

// RunSerial is Run with the Round loop executed serially on the calling
// goroutine. It exists only as the test reference the pipelined Run is
// checked against; production callers use Run.
func RunSerial(d *atom.DAG, s *schedule.Schedule, cfg Config) (Report, error) {
	return run(d, s, cfg, false)
}

func run(d *atom.DAG, s *schedule.Schedule, cfg Config, pipeline bool) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	n := cfg.Mesh.Engines()
	st, reused, err := acquireState(cfg, d, s)
	if err != nil {
		return Report{}, err
	}
	defer releaseState(cfg.Mesh, st)
	hbm := dram.New(cfg.DRAM)
	orc := cost.Or(cfg.Oracle)
	sm := newSimMetrics(cfg.Metrics, cfg.Mesh)
	if sm != nil {
		st.ar.linkTraffic = sm.linkBytes
		if reused {
			sm.poolReuse.Inc()
		}
	}

	r := &runner{
		cfg: cfg, d: d, s: s, n: n,
		man: st.man, mapper: st.mapper, sorter: &st.sorter, slots: &st.slots, ar: st.ar,
		hbm: hbm, orc: orc, sm: sm,
	}
	r.rep.Rounds = s.NumRounds()
	if pipeline && s.NumRounds() > 1 {
		err = r.runPipelined()
	} else {
		err = r.runSerial()
	}
	if err != nil {
		return Report{}, err
	}

	rep := &r.rep
	rep.Cycles = r.now
	rep.TimeMS = float64(r.now) / (cfg.Engine.FreqMHz * 1e3)
	rep.Evictions = st.man.Evictions()
	if r.totalInputs > 0 {
		rep.OnChipReuseRatio = float64(r.onChipInputs) / float64(r.totalInputs)
	}
	totalPEs := int64(n * cfg.Engine.NumPEs() * cfg.Engine.MACsPerPE)
	if rep.Cycles > 0 {
		rep.PEUtilization = float64(rep.MACs) / (float64(rep.Cycles) * float64(totalPEs))
	}
	if rep.ComputeCycles > 0 {
		rep.ComputeUtil = float64(rep.MACs) / (float64(rep.ComputeCycles) * float64(totalPEs))
	}
	rep.Energy.AddMACs(cfg.Energy, rep.MACs)
	rep.Energy.AddDRAM(cfg.Energy, rep.DRAMReadBytes+rep.DRAMWriteBytes)
	rep.Energy.AddStatic(cfg.Energy, rep.Cycles*int64(n))
	if sm != nil {
		sm.finish(rep, st.man, hbm, orc, st.ar)
	}
	return r.rep, nil
}

// useReferenceFlows routes Run through the map-based reference NoC path
// below instead of the dense arena path (a test hook: the golden
// determinism test proves both paths produce bit-identical Reports).
var useReferenceFlows = false

// simulateFlowsReference serializes the Round's flows on shared links
// (deterministic order) and returns per-destination-engine arrival times
// plus the Round's byte-hop volume. Unicast flows each occupy every link
// of their XY route; flows sharing (Src, Tag != 0) carry one tensor to
// many engines and occupy the union of their routes once (switch-level
// replication, as in weight broadcast).
//
// This is the executable specification of the NoC contention model; the
// production path is arena.simulateFlows, which replays the same walk
// over link-ID-indexed epoch-stamped slices without allocating.
func simulateFlowsReference(mesh *noc.Mesh, flows []buffer.Flow, start int64) (map[int]int64, int64) {
	type mkey struct {
		src int
		tag int64
	}
	groups := make(map[mkey][]buffer.Flow)
	var order []mkey
	for _, f := range flows {
		k := mkey{src: f.Src, tag: f.GroupKey()}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], f)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].src != order[j].src {
			return order[i].src < order[j].src
		}
		ti, tj := order[i].tag, order[j].tag
		ai, aj := ti, tj
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai < aj
		}
		return ti < tj
	})

	linkFree := make(map[noc.Link]int64)
	ready := make(map[int]int64)
	var byteHops int64
	for _, k := range order {
		fs := groups[k]
		sort.Slice(fs, func(i, j int) bool { return fs[i].Dst < fs[j].Dst })
		bytes := fs[0].Bytes
		for _, f := range fs {
			if f.Bytes > bytes {
				bytes = f.Bytes
			}
		}
		ser := (bytes + int64(mesh.LinkBytes) - 1) / int64(mesh.LinkBytes)
		// Walk each destination's route; a link is claimed once per tree
		// (switch-level replication). A link cannot start forwarding
		// before the stream's head reaches it from the upstream link
		// (cut-through), nor while a previous tensor occupies it.
		linkStart := make(map[noc.Link]int64)
		for _, f := range fs {
			head := start
			var lastStart int64 = start
			path := mesh.Path(f.Src, f.Dst)
			for _, l := range path {
				s, claimed := linkStart[l]
				if !claimed {
					s = head
					if lf := linkFree[l]; lf > s {
						s = lf
					}
					linkStart[l] = s
					linkFree[l] = s + ser
				}
				head = s + mesh.HopCycles
				lastStart = s
			}
			arrive := start
			if len(path) > 0 {
				arrive = lastStart + ser + mesh.HopCycles
			}
			if arrive > ready[f.Dst] {
				ready[f.Dst] = arrive
			}
		}
		byteHops += bytes * int64(len(linkStart))
	}
	return ready, byteHops
}

func sumSlice(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
