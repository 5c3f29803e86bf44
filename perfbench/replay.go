package main

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	atomicflow "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/modelio"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/serve"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
	"github.com/atomic-dataflow/atomicflow/internal/trace"
)

// span is one timed call, kept in memory until the traced run ends.
// Start and End are nanoseconds from the start of the traced run; Parent
// indexes the enclosing span, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0).Nanoseconds() }

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Layer span names, one per public entry point the traced run calls.
const (
	spanRequest  = "request"
	spanParse    = "serve.parse"
	spanSearch   = "anneal.search"
	spanAtom     = "atom.build"
	spanSchedule = "schedule.build"
	spanSim      = "sim.run"
	spanTrace    = "trace.write"
	spanEncode   = "serve.encode"
)

var layerSpans = []string{spanParse, spanSearch, spanAtom, spanSchedule, spanSim, spanTrace, spanEncode}

// replay solves a request sequence by calling each layer directly, in
// the order serve.Server runs them, and times every call. It keeps the
// server's state that changes what a request costs: one shared cost
// oracle with a surrogate sampler attached, and a 256-entry LRU of
// responses.
type replay struct {
	w      *workload
	enc    *encoder
	tr     tracer
	oracle cost.Oracle
	graphs map[int]*graph.Graph
	lru    *lru
	n      counts
}

// counts are the traced run's totals over timed requests.
type counts struct {
	solves, traced   int
	iters, atoms     int64
	rounds, respSize int64
	evals, hits      int64             // cost-oracle misses and hits
	alloc            map[string]uint64 // bytes allocated per layer span
}

// solved is what the replay computed for one request.
type solved struct {
	digest string
	rep    sim.Report
}

func newReplay(w *workload, enc *encoder) *replay {
	o := atomicflow.NewCostOracle()
	cost.AttachSampler(o, atomicflow.NewSurrogateModel())
	return &replay{w: w, enc: enc, oracle: o, graphs: make(map[int]*graph.Graph),
		lru: newLRU(256), n: counts{alloc: make(map[string]uint64)}}
}

// graph returns the variant's workload graph. The server decodes it inside
// serve.ParseRequest, which keeps it private, so the replay builds each
// variant's graph once outside any span.
func (r *replay) graph(v int) (*graph.Graph, error) {
	if g, ok := r.graphs[v]; ok {
		return g, nil
	}
	vr := r.w.Variants[v]
	g, err := models.Build(vr.Model)
	if err == nil && vr.Inline {
		var enc []byte
		if enc, err = modelio.Encode(g); err == nil {
			g, err = modelio.Decode(enc)
		}
	}
	if err != nil {
		return nil, err
	}
	r.graphs[v] = g
	return g, nil
}

// do replays one request; timed adds its spans under request id req.
// It returns nil for a cache hit.
func (r *replay) do(spec reqSpec, req int, timed bool) (*solved, error) {
	cnt := &r.n
	if !timed {
		cnt = &counts{alloc: make(map[string]uint64)} // counted nowhere
	}
	body := r.enc.body(spec)
	root := -1
	timeIt := func(name string, f func() error) error {
		if !timed {
			return f()
		}
		s := r.tr.begin(name, req, root)
		err := f()
		r.tr.end(s)
		return err
	}
	if timed {
		root = r.tr.begin(spanRequest, req, -1)
		defer r.tr.end(root)
	}
	var pr *serve.Request
	if err := timeIt(spanParse, func() (err error) { pr, err = serve.ParseRequest(body); return err }); err != nil {
		return nil, err
	}
	if n, ok := r.lru.get(pr.Key()); ok {
		cnt.respSize += int64(n)
		return nil, nil
	}
	g, err := r.graph(spec.V)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	hw := hardware(atomicflow.DefaultHardware(), pr.Hardware)
	hw.Oracle, hw.Ctx = r.oracle, ctx
	ev0, _ := cost.StatsOf(r.oracle)
	start := time.Now()

	var res anneal.Result
	_ = timeIt(spanSearch, func() error {
		res = anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{
			MaxIters: pr.SAIters, Seed: pr.Seed, Chains: pr.Chains,
			MaxTilesPerLay: pr.MaxTiles, Oracle: hw.Oracle, Ctx: ctx,
		})
		return nil
	})
	var d *atom.DAG
	if err := allocTimed(cnt, timeIt, spanAtom, func() (err error) { d, err = atom.Build(g, pr.Batch, res.Spec); return err }); err != nil {
		return nil, err
	}
	mode := schedule.DP
	if pr.Mode == "greedy" {
		mode = schedule.Greedy
	}
	var s *schedule.Schedule
	if err := allocTimed(cnt, timeIt, spanSchedule, func() (err error) {
		s, err = schedule.Build(d, schedule.Options{
			Engines: hw.Mesh.Engines(), Mode: mode, EngineCfg: hw.Engine,
			Dataflow: hw.Dataflow, Oracle: hw.Oracle, Ctx: ctx,
		})
		return err
	}); err != nil {
		return nil, err
	}
	searchTime := time.Since(start)
	var col *trace.Collector
	if pr.Trace {
		col = &trace.Collector{}
		hw.Trace = col.Hook
	}
	var rep sim.Report
	if err := allocTimed(cnt, timeIt, spanSim, func() (err error) { rep, err = sim.Run(d, s, hw); return err }); err != nil {
		return nil, err
	}
	resp := serve.SolveResponse{
		Model: pr.Model, Atoms: countAtoms(d), Rounds: s.NumRounds(),
		AtomCycleCV: res.FinalCV, SearchMS: float64(searchTime.Microseconds()) / 1e3, Report: rep,
	}
	resp.Digest = digest(resp, s)
	if col != nil {
		var buf bytes.Buffer
		if err := timeIt(spanTrace, func() error { return col.WriteChrome(&buf, g) }); err != nil {
			return nil, err
		}
		resp.Trace = buf.Bytes()
		cnt.traced++
	}
	var out []byte
	if err := timeIt(spanEncode, func() (err error) { out, err = json.Marshal(resp); return err }); err != nil {
		return nil, err
	}
	r.lru.add(pr.Key(), len(out))
	cnt.respSize += int64(len(out))
	ev1, _ := cost.StatsOf(r.oracle)
	cnt.solves++
	cnt.iters += int64(res.Iters)
	cnt.atoms += int64(resp.Atoms)
	cnt.rounds += int64(resp.Rounds)
	cnt.evals += ev1.Misses - ev0.Misses
	cnt.hits += ev1.Hits - ev0.Hits
	return &solved{digest: resp.Digest, rep: rep}, nil
}

// allocTimed times f and adds the bytes it allocated to the layer's
// total. Only the replay runs at this point, so the process-wide
// counter is the layer's own.
func allocTimed(cnt *counts, timeIt func(string, func() error) error, name string, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := timeIt(name, f)
	runtime.ReadMemStats(&m1)
	cnt.alloc[name] += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// hardware applies a normalized request's hardware spec to base, as the
// server does.
func hardware(base sim.Config, h *serve.HardwareSpec) sim.Config {
	hw := base
	hw.Mesh = noc.NewMesh(h.MeshW, h.MeshH, h.LinkBytes)
	if h.BufferBytes > 0 {
		hw.BufferBytes = h.BufferBytes
	}
	hw.Dataflow = engine.KCPartition
	if h.Dataflow == "yxp" {
		hw.Dataflow = engine.YXPartition
	}
	hw.NaiveMapping = h.NaiveMapping
	hw.DoubleBuffer = *h.DoubleBuffer
	return hw
}

func countAtoms(d *atom.DAG) int {
	n := 0
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			n++
		}
	}
	return n
}

// digest recomputes atomicflow.Solution.Digest from the layer outputs, so
// the traced run can be compared with the server's answer byte for byte.
func digest(r serve.SolveResponse, s *schedule.Schedule) string {
	h := sha256.New()
	fmt.Fprintf(h, "report %+v\n", r.Report)
	fmt.Fprintf(h, "atoms %d rounds %d cv %v\n", r.Atoms, r.Rounds, r.AtomCycleCV)
	for i, rd := range s.Rounds {
		fmt.Fprintf(h, "round %d %v\n", i, rd.Atoms)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lru mirrors the server's response cache: key -> response size.
type lru struct {
	cap   int
	order *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key  string
	size int
}

func newLRU(n int) *lru {
	return &lru{cap: n, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *lru) get(key string) (int, bool) {
	e, ok := c.items[key]
	if !ok {
		return 0, false
	}
	c.order.MoveToFront(e)
	return e.Value.(lruEntry).size, true
}

func (c *lru) add(key string, size int) {
	if e, ok := c.items[key]; ok {
		c.order.MoveToFront(e)
		return
	}
	c.items[key] = c.order.PushFront(lruEntry{key, size})
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(lruEntry).key)
	}
}

// sameAs reports how a replayed solve differs from the server's answer
// for the same request id, or "" when digest and Report are identical.
func (s *solved) sameAs(prev *seen) string {
	switch {
	case prev == nil:
		return "no untraced answer to compare"
	case s.digest != prev.digest:
		return "traced digest differs from untraced"
	case !reflect.DeepEqual(s.rep, prev.rep):
		return "traced report differs from untraced"
	}
	return ""
}
