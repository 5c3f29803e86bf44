// Command perfbench is the repository's end-to-end benchmark. It starts an
// in-process serve.Server with default Config on a loopback listener,
// drives /solve from a load generator in the same process, checks every
// response, and prints every metric by name with its unit. The last line
// of standard output is one JSON object with the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a traced replay of the same
// requests.
//
//	go run . --workload zoo-cold --seed 1 --seconds 30 --trace 0
//	go run . --update-golden   # re-pin golden.json at the default seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
)

// metric is one reported figure, as listed in BENCHMARK.json.
type metric struct{ Name, Unit, Better string }

var endToEnd = []metric{
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_ms_geomean", "ms", "lower"},
	{"pe_util_mean", "ratio", "higher"},
}

var perLayer = []metric{
	{"serve.parse_ms", "ms", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"serve.response_kb", "KB", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.dedup_joins", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"anneal.search_ms", "ms", "lower"},
	{"anneal.iters", "count", "lower"},
	{"cost.exact_evals", "count", "lower"},
	{"cost.hit_ratio", "ratio", "higher"},
	{"atom.build_ms", "ms", "lower"},
	{"atom.atoms", "count", "lower"},
	{"atom.alloc_mb", "MB", "lower"},
	{"schedule.build_ms", "ms", "lower"},
	{"schedule.rounds", "count", "lower"},
	{"schedule.alloc_mb", "MB", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.us_per_round", "us", "lower"},
	{"sim.alloc_mb", "MB", "lower"},
	{"trace.write_ms", "ms", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"trace_run.unattributed_ms", "ms", "lower"},
}

// A run sets up at least minSetups times and until set-up has taken
// minSetupTime, at most maxSetups times; setup_s is the median. The first
// few set-ups in a process run slower than the rest, so a workload with a
// short set-up takes enough of them that the median is a warm one.
const (
	minSetups    = 3
	maxSetups    = 15
	minSetupTime = 3 * time.Second
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: zoo-cold or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "how long the load generator sends requests")
	traced := flag.Int("trace", 0, "1: also replay the requests layer by layer and report per-layer metrics")
	update := flag.Bool("update-golden", false, "re-pin golden.json in the current directory at the default seed")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced == 1, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds int, traced, update bool) error {
	if update {
		return updateGolden("golden.json")
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	res, err := run(w, seed, time.Duration(seconds)*time.Second, traced, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run sets the workload up several times, drives the last server for
// dur, and with traced replays the same requests layer by layer.
func run(w *workload, seed int64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# host nproc=%d gomaxprocs=%d go=%s arch=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH)
	fmt.Fprintf(out, "# workload %s seed=%d loop=%s conns=%d rate=%g seconds=%g trace=%t\n",
		w.Name, seed, w.Loop, w.Conns, w.Rate, dur.Seconds(), traced)
	chk := newChecker(golden)
	var (
		s      *server
		g      *loadgen
		setups []float64
	)
	var spent time.Duration
	for rep := 0; rep < maxSetups && (rep < minSetups || spent < minSetupTime); rep++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s, err = startServer(w.Conns); err != nil {
			return nil, err
		}
		enc, err := newEncoder(w)
		if err == nil {
			g = &loadgen{w: w, seed: seed, enc: enc, chk: chk}
			err = g.warm(s, w.warmSpecs(seed))
		}
		if err != nil {
			_ = s.stop() // the set-up error is the one to report
			return nil, err
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m0, err := s.metrics()
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	gc0, cpu0 := gcCPU()
	var samples []sample
	if w.Loop == "closed" {
		samples = g.closedLoop(s, dur)
	} else {
		n := w.LeadIn + max(int(w.Rate*dur.Seconds()), w.Fixed, 2*minBeyond+1)
		samples = g.openLoop(s, w.openPlan(seed, n))
	}
	gc1, cpu1 := gcCPU()
	m1, err := s.metrics()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: len(samples), Metrics: make(map[string]value)}
	e2e := make(map[string]float64)
	fails := make(map[string]int)
	var lat, late []float64
	var last time.Duration
	for _, smp := range samples {
		if smp.fail != "" {
			fails[smp.fail]++
			res.Failed++
			continue
		}
		if smp.idx < w.LeadIn {
			continue
		}
		late = append(late, ms(smp.sent-smp.due))
		last = max(last, smp.done)
		lat = append(lat, ms(smp.latency()))
	}
	measureStart := time.Duration(float64(w.LeadIn) / max(w.Rate, 1) * float64(time.Second))
	tail, pct, windows, tailOK := windowedTail(lat)
	lat = sorted(lat)
	e2e["latency_ms_p50"] = median(lat)
	e2e["latency_ms_tail"] = tail
	e2e["throughput_rps"] = float64(len(lat)) / (last - measureStart).Seconds()
	e2e["setup_s"] = median(sorted(setups))
	e2e["peak_rss_mb"] = peakRSSMB()
	simMS, util, fixedOK := fixedResults(w, samples, chk)
	e2e["sim_ms_geomean"] = geomean(simMS)
	e2e["pe_util_mean"] = mean(util)
	if !fixedOK {
		fails["fixed request set incomplete"]++
	}
	fmt.Fprintf(out, "# samples measured_ok=%d attempted=%d error_rate=%.6f tail=p%.2f (%d beyond, median of %d windows of %d) setups_s=%v\n",
		len(lat), res.Attempted, float64(res.Failed)/float64(res.Attempted), pct, minBeyond, windows, len(lat)/windows, setups)
	printFails(out, fails)
	printVariants(out, w, samples)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "# e2e %s %.6g %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	res.Correct = res.Failed == 0 && fixedOK && tailOK
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{finite(e2e[m.Name]), m.Unit}
		}
		return res, nil
	}

	layer, mismatch, err := tracedRun(w, seed, dur, g.enc, samples, chk, out)
	if err != nil {
		return nil, err
	}
	printFails(out, mismatch)
	res.Correct = res.Correct && len(mismatch) == 0
	layer["serve.hit_ratio"] = ratio(delta(m0, m1, "serve_cache_hits_total"),
		delta(m0, m1, "serve_cache_hits_total")+delta(m0, m1, "serve_cache_misses_total"))
	layer["serve.dedup_joins"] = delta(m0, m1, "serve_dedup_joined_total")
	layer["serve.rejected"] = delta(m0, m1, "serve_queue_rejected_total")
	layer["go.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)
	layer["loadgen.late_ms_p99"] = percentile(sorted(late), 99)
	for _, m := range perLayer {
		fmt.Fprintf(out, "# layer %s %.6g %s\n", m.Name, layer[m.Name], m.Unit)
		res.Metrics[m.Name] = value{finite(layer[m.Name]), m.Unit}
	}
	return res, nil
}

// fixedResults collects the simulated time and PE utilization of the
// requests every run completes: the first w.Fixed of the sequence.
func fixedResults(w *workload, samples []sample, chk *checker) (simMS, util []float64, ok bool) {
	got := make(map[int]bool)
	for _, smp := range samples {
		if smp.idx >= w.Fixed || got[smp.idx] || smp.fail != "" {
			continue
		}
		got[smp.idx] = true
		sn := chk.get(smp.id)
		simMS = append(simMS, sn.rep.TimeMS)
		util = append(util, sn.rep.PEUtilization)
	}
	return simMS, util, len(got) == w.Fixed
}

// tracedRun replays the untraced run's requests layer by layer on a fresh
// oracle warmed like the server's, checks each solve against the
// server's answer, writes the spans out and returns the per-layer
// metrics and any mismatches. It replays the open loop's lead-in too,
// which holds the solves of its hot keys. It replays at least max(Fixed,
// 20) requests and stops after 2*dur.
func tracedRun(w *workload, seed int64, dur time.Duration, enc *encoder, samples []sample, chk *checker, out io.Writer) (map[string]float64, map[string]int, error) {
	rp := newReplay(w, enc)
	for _, spec := range w.warmSpecs(seed) {
		if _, err := rp.do(spec, -1, false); err != nil {
			return nil, nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	mismatch := make(map[string]int)
	rp.tr.t0 = time.Now()
	n := 0
	for i, smp := range samples {
		if n >= max(w.Fixed, 2*minBeyond) && time.Since(rp.tr.t0) > 2*dur {
			break
		}
		n++
		sol, err := rp.do(smp.spec, i, true)
		if err != nil {
			mismatch["replay error: "+err.Error()]++
			continue
		}
		if sol != nil {
			if why := sol.sameAs(chk.get(smp.id)); why != "" {
				mismatch[why]++
			}
		}
	}

	self := selfTimes(rp.tr.spans)
	layerNS := make(map[string]float64)
	var reqNS, unattributed float64
	for i, sp := range rp.tr.spans {
		layerNS[sp.Name] += float64(self[i])
		if sp.Name == spanRequest {
			covered := float64(sp.End - sp.Start - self[i])
			reqNS += float64(sp.End - sp.Start)
			unattributed += ms(samples[sp.Req].service()) - covered/1e6
		}
	}
	if err := writeSpans(w, seed, rp.tr.spans); err != nil {
		return nil, nil, err
	}
	solves := float64(max(rp.n.solves, 1))
	perSolveMS := func(name string) float64 { return layerNS[name] / 1e6 / solves }
	layer := map[string]float64{
		"serve.parse_ms":            layerNS[spanParse] / 1e6 / float64(n),
		"serve.encode_ms":           perSolveMS(spanEncode),
		"serve.response_kb":         float64(rp.n.respSize) / 1024 / float64(n),
		"anneal.search_ms":          perSolveMS(spanSearch),
		"anneal.iters":              float64(rp.n.iters) / solves,
		"cost.exact_evals":          float64(rp.n.evals) / solves,
		"cost.hit_ratio":            ratio(float64(rp.n.hits), float64(rp.n.hits+rp.n.evals)),
		"atom.build_ms":             perSolveMS(spanAtom),
		"atom.atoms":                float64(rp.n.atoms) / solves,
		"atom.alloc_mb":             float64(rp.n.alloc[spanAtom]) / (1 << 20) / solves,
		"schedule.build_ms":         perSolveMS(spanSchedule),
		"schedule.rounds":           float64(rp.n.rounds) / solves,
		"schedule.alloc_mb":         float64(rp.n.alloc[spanSchedule]) / (1 << 20) / solves,
		"sim.run_ms":                perSolveMS(spanSim),
		"sim.us_per_round":          layerNS[spanSim] / 1e3 / float64(max(rp.n.rounds, 1)),
		"sim.alloc_mb":              float64(rp.n.alloc[spanSim]) / (1 << 20) / solves,
		"trace.write_ms":            layerNS[spanTrace] / 1e6 / float64(max(rp.n.traced, 1)),
		"trace_run.unattributed_ms": unattributed / float64(n),
	}
	fmt.Fprintf(out, "# traced replay requests=%d solves=%d traced=%d of %d untraced requests\n", n, rp.n.solves, rp.n.traced, len(samples))
	fmt.Fprintf(out, "# layer shares of replayed request time:")
	for _, name := range append(layerSpans, spanRequest) {
		fmt.Fprintf(out, " %s=%.1f%%", name, 100*layerNS[name]/reqNS)
	}
	fmt.Fprintln(out)
	return layer, mismatch, nil
}

// writeSpans saves the traced run's spans under .bench_build/spans.
func writeSpans(w *workload, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.Name, seed)))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": w.Name, "seed": seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "spans": spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printVariants prints the median measured latency of each request kind.
func printVariants(out io.Writer, w *workload, samples []sample) {
	byKind := make(map[string][]float64)
	for _, smp := range samples {
		if smp.fail == "" && smp.idx >= w.LeadIn {
			k := w.Variants[smp.spec.V].name()
			if smp.spec.Trace {
				k += "+trace"
			}
			byKind[k] = append(byKind[k], ms(smp.latency()))
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "# kind %s n=%d p50=%.3fms\n", k, len(byKind[k]), median(sorted(byKind[k])))
	}
}

func printFails(out io.Writer, fails map[string]int) {
	reasons := make([]string, 0, len(fails))
	for r := range fails {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(out, "# FAIL %dx %s\n", fails[r], r)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// finite maps the NaN or Inf of a run without good samples to 0, which
// JSON can carry; such a run already reports correct=false.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func delta(m0, m1 obs.Snapshot, name string) float64 {
	return float64(m1.Counter(name) - m0.Counter(name))
}

// gcCPU returns the process's GC and total CPU seconds so far.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
