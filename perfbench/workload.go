package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"github.com/atomic-dataflow/atomicflow/internal/modelio"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

// variant is one kind of /solve request a workload sends: a zoo model by
// name, or the same model as an inline modelio graph.
type variant struct {
	Model  string
	Inline bool
	Batch  int
}

func (v variant) name() string {
	if v.Inline {
		return v.Model + ".inline"
	}
	return v.Model
}

// slot is one position of a workload's fixed rotation.
type slot struct {
	V     int // index into workload.variants
	Trace bool
	// Open loops only. Cold draws the key's seed from Zipf-popular ranks
	// over an unbounded seed space; otherwise the key is one of HotKeys
	// keys picked uniformly, all of which the lead-in sends. Pair sends a
	// cold key the first time it is drawn on every connection at once, so
	// the copies meet in the server's singleflight.
	Cold, Pair bool
}

// workload is one traffic mix. Requests cycle through a fixed rotation
// of variants, so every run sends the models in the same proportions;
// closed loops also end a run on a whole rotation. Open loops send at a
// fixed rate. On a 2-vCPU host a zoo-cold rotation takes about 3.3 s, so
// a 30 s run ends near nine whole rotations.
type workload struct {
	Name     string
	Loop     string // "closed" or "open"
	Conns    int
	Rate     float64 // open loop: requests per second
	Variants []variant
	Rotation []slot
	// Fixed is how many leading requests every run completes; the
	// simulated-result metrics are computed over them alone, so they
	// move only when results move.
	Fixed int
	// ZipfS is the exponent of the open loop's cold-key popularity.
	ZipfS   float64
	HotKeys int
	// LeadIn is how many open-loop requests fill the response cache
	// before measuring starts; they are checked but not timed. Without
	// it the tail is the cold-cache backlog of the first half second.
	LeadIn int
}

var workloads = []*workload{
	// The compile job the paper's users run: every stage does comparable
	// work, and two workers plus the simulator's prep goroutine share two
	// cores.
	{
		Name:  "zoo-cold",
		Loop:  "closed",
		Conns: 2,
		Variants: []variant{
			{Model: "vgg19", Batch: 1}, {Model: "resnet50", Batch: 1},
			{Model: "resnet152", Batch: 1}, {Model: "inceptionv3", Batch: 1},
			{Model: "nasnet", Batch: 1}, {Model: "pnasnet", Batch: 1},
			{Model: "efficientnet", Batch: 1},
		},
		// Twice through the seven Table I models; the second
		// efficientnet asks for the Chrome trace so the trace layer is
		// measured on this workload too.
		Rotation: []slot{
			{V: 0}, {V: 1}, {V: 2}, {V: 3}, {V: 4}, {V: 5}, {V: 6},
			{V: 0}, {V: 1}, {V: 2}, {V: 3}, {V: 4}, {V: 5}, {V: 6, Trace: true},
		},
		Fixed: 28,
	},
	// Mostly cache hits, so the serve layer's read path sets the median,
	// while a tail of new keys writes the cache, joins the singleflight
	// and runs small solves that are about half search.
	{
		Name:  "serve-mixed",
		Loop:  "open",
		Conns: 2,
		Rate:  100,
		Variants: []variant{
			{Model: "tinyresnet", Batch: 1}, {Model: "mobilenetv2", Batch: 1},
			{Model: "efficientnet", Batch: 1},
			{Model: "mobilenetv2", Inline: true, Batch: 1},
			{Model: "efficientnet", Inline: true, Batch: 1},
		},
		// Six in ten requests carry an inline graph, so the median is an
		// inline-graph cache hit, clear of the cheaper by-name hits below
		// it. One in ten asks for the Chrome trace. New keys come only
		// from the tinyresnet slots: the tail is then a run of cheap
		// solves rather than the few times two larger solves overlap,
		// which set it unsteadily. Half of them go out in pairs.
		Rotation: []slot{
			{V: 3}, {V: 4}, {V: 0, Cold: true, Pair: true}, {V: 3}, {V: 4},
			{V: 1, Trace: true}, {V: 3}, {V: 0, Cold: true}, {V: 4}, {V: 2},
			{V: 3}, {V: 4}, {V: 0, Cold: true, Pair: true}, {V: 3}, {V: 4},
			{V: 1, Trace: true}, {V: 3}, {V: 0, Cold: true}, {V: 4}, {V: 2},
		},
		Fixed:   200,
		LeadIn:  500,
		ZipfS:   1.3,
		HotKeys: 8,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// reqSpec is one planned request.
type reqSpec struct {
	V     int
	Seed  int64
	Trace bool
	Pair  bool // open loop: sent on both connections at once
}

// id names the request's solution: two specs with the same id must get
// the same digest.
func (w *workload) id(s reqSpec) string {
	v := w.Variants[s.V]
	id := fmt.Sprintf("%s/b%d/s%d", v.name(), v.Batch, s.Seed)
	if s.Trace {
		id += "/trace"
	}
	return id
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Request seeds live in disjoint streams of the workload seed: measured
// closed-loop requests, warm-up requests and open-loop key ranks.
const (
	streamWarm = 1 << 62
	streamRank = 1 << 61
)

func requestSeed(seed int64, stream uint64) int64 {
	return int64(splitmix(splitmix(uint64(seed))^stream)>>2) + 2
}

// closedSpec is request i of a closed loop: a pure function of (seed, i),
// so the sequence does not depend on how far a run gets.
func (w *workload) closedSpec(seed int64, i int) reqSpec {
	s := w.Rotation[i%len(w.Rotation)]
	return reqSpec{V: s.V, Seed: requestSeed(seed, uint64(i)), Trace: s.Trace}
}

// openPlan draws the first n requests of an open loop. Which requests
// repeat which key is fixed, the same for every seed, so the hit/miss
// pattern does not change from run to run; the workload seed picks the
// request seed behind every key.
func (w *workload) openPlan(seed int64, n int) []reqSpec {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, w.ZipfS, 1, 1<<40)
	seen := make(map[string]bool)
	out := make([]reqSpec, n)
	for i := range out {
		sl := w.Rotation[i%len(w.Rotation)]
		rank := uint64(rng.Intn(w.HotKeys))
		if sl.Cold {
			rank = uint64(w.HotKeys) + zipf.Uint64()
		}
		s := reqSpec{V: sl.V, Seed: requestSeed(seed, streamRank+rank), Trace: sl.Trace}
		if id := w.id(s); !seen[id] {
			seen[id] = true
			s.Pair = sl.Pair
		}
		out[i] = s
	}
	return out
}

// warmSpecs is one request per variant, with seeds no measured request uses.
func (w *workload) warmSpecs(seed int64) []reqSpec {
	out := make([]reqSpec, len(w.Variants))
	for v := range out {
		out[v] = reqSpec{V: v, Seed: requestSeed(seed, streamWarm+uint64(v))}
	}
	return out
}

// encoder turns specs into /solve bodies from per-variant templates, so
// the graphs are encoded once in set-up, not per request.
type encoder struct {
	prefix [][2][]byte // [variant][trace] -> body up to the seed value
}

func newEncoder(w *workload) (*encoder, error) {
	e := &encoder{prefix: make([][2][]byte, len(w.Variants))}
	for i, v := range w.Variants {
		var head []byte
		if v.Inline {
			g, err := models.Build(v.Model)
			if err != nil {
				return nil, err
			}
			enc, err := modelio.Encode(g)
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", v.Model, err)
			}
			head = append([]byte(`{"graph":`), enc...)
		} else {
			head = []byte(`{"model":` + strconv.Quote(v.Model))
		}
		if v.Batch != 1 {
			head = append(head, `,"batch":`+strconv.Itoa(v.Batch)...)
		}
		e.prefix[i][0] = append(append([]byte(nil), head...), `,"seed":`...)
		e.prefix[i][1] = append(append([]byte(nil), head...), `,"trace":true,"seed":`...)
	}
	return e, nil
}

func (e *encoder) body(s reqSpec) []byte {
	p := e.prefix[s.V][0]
	if s.Trace {
		p = e.prefix[s.V][1]
	}
	b := make([]byte, 0, len(p)+21)
	b = append(b, p...)
	b = strconv.AppendInt(b, s.Seed, 10)
	return append(b, '}')
}
