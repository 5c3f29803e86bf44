package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/serve"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// bodies renders the first n requests a workload sends at seed.
func bodies(t *testing.T, w *workload, seed int64, n int) [][]byte {
	t.Helper()
	enc, err := newEncoder(w)
	if err != nil {
		t.Fatal(err)
	}
	specs := w.warmSpecs(seed)
	if w.Loop == "closed" {
		for i := 0; i < n; i++ {
			specs = append(specs, w.closedSpec(seed, i))
		}
	} else {
		specs = append(specs, w.openPlan(seed, n)...)
	}
	out := make([][]byte, len(specs))
	for i, s := range specs {
		out[i] = enc.body(s)
		if s.Pair {
			out[i] = append(out[i], " pair"...)
		}
	}
	return out
}

func TestSeedFixesRequestSequence(t *testing.T) {
	for _, w := range workloads {
		a, b, c := bodies(t, w, 7, 300), bodies(t, w, 7, 300), bodies(t, w, 8, 300)
		same, differ := true, false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differ = differ || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: seed 7 gave two different request sequences", w.Name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.Name)
		}
		for _, body := range a[:len(w.Variants)+5] {
			if _, err := serve.ParseRequest(bytes.TrimSuffix(body, []byte(" pair"))); err != nil {
				t.Errorf("%s: %s: %v", w.Name, body[:min(len(body), 60)], err)
			}
		}
	}
}

func TestOpenPlanIsPrefixStable(t *testing.T) {
	w, err := workloadByName("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	short, long := w.openPlan(3, 100), w.openPlan(3, 1000)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("request %d differs between a 100- and a 1000-request plan", i)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	vals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, _, ok := tailPercentile(vals(minBeyond)); ok {
		t.Errorf("%d samples: want no tail percentile", minBeyond)
	}
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
		{2500, 2490, 99.6},
	} {
		v, pc, ok := tailPercentile(vals(c.n))
		if !ok || v != c.value || pc != c.pc {
			t.Errorf("n=%d: got (%v, p%v, %v), want (%v, p%v)", c.n, v, pc, ok, c.value, c.pc)
		}
		beyond := 0
		for _, x := range vals(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minBeyond)
		}
		if percentile(vals(c.n), pc) != v {
			t.Errorf("n=%d: nearest-rank p%v is %v, want %v", c.n, pc, percentile(vals(c.n), pc), v)
		}
	}
}

func TestWindowedTail(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i%100 + 1)
		}
		return out
	}
	// Under two windows' worth of samples the rule is tailPercentile's.
	short := ramp(2*tailWindow - 1)
	v, pc, k, ok := windowedTail(short)
	wv, wpc, _ := tailPercentile(sorted(short))
	if !ok || k != 1 || v != wv || pc != wpc {
		t.Errorf("one window: got (%v, p%v, %d windows, %v), want (%v, p%v, 1 window)", v, pc, k, ok, wv, wpc)
	}
	// A stall that lifts more than minBeyond samples of one window in
	// three does not move the median of the window tails.
	long := ramp(3 * tailWindow)
	want, _, _, _ := windowedTail(long)
	for i := 0; i < 3*minBeyond; i++ {
		long[tailWindow+i] = 1e6
	}
	got, _, k, ok := windowedTail(long)
	if !ok || k != 3 || got != want {
		t.Errorf("stall in one of three windows: tail %v over %d windows, want %v over 3", got, k, want)
	}
	if _, _, _, ok := windowedTail(ramp(minBeyond)); ok {
		t.Errorf("%d samples: want no tail", minBeyond)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	names := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, valid)
		}
		if names[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		names[m.Name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit, Better string }, prog []metric) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i, m := range file {
			if m != (struct{ Name, Unit, Better string }{prog[i].Name, prog[i].Unit, prog[i].Better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, prog[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

func TestCheckerRejects(t *testing.T) {
	good := serve.SolveResponse{
		Digest: "aaaa", Rounds: 3,
		Report: sim.Report{Cycles: 100, ComputeCycles: 80, Rounds: 3, PEUtilization: 0.4, ComputeUtil: 0.5},
	}
	body := func(r serve.SolveResponse) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	chk := newChecker(map[string]string{"pinned": "aaaa"})
	if why := chk.check("pinned", http.StatusOK, body(good)); why != "" {
		t.Fatalf("good response rejected: %s", why)
	}
	if why := chk.check("pinned", http.StatusOK, body(good)); why != "" {
		t.Fatalf("repeat of a good response rejected: %s", why)
	}
	tampered := good
	tampered.Digest = "bbbb"
	if chk.check("pinned", http.StatusOK, body(tampered)) == "" {
		t.Error("digest differing from golden accepted")
	}
	if why := chk.check("free", http.StatusOK, body(tampered)); why != "" {
		t.Fatalf("unpinned response rejected: %s", why)
	}
	again := tampered
	again.Digest, again.SearchMS = "cccc", 1
	if chk.check("free", http.StatusOK, body(again)) == "" {
		t.Error("repeat of a key with another digest accepted")
	}
	if chk.check("x", http.StatusInternalServerError, body(good)) == "" {
		t.Error("non-200 status accepted")
	}
	if chk.check("x", http.StatusOK, []byte("{")) == "" {
		t.Error("undecodable body accepted")
	}
	for name, breakIt := range map[string]func(*serve.SolveResponse){
		"zero cycles":                 func(r *serve.SolveResponse) { r.Report.Cycles = 0 },
		"compute cycles above cycles": func(r *serve.SolveResponse) { r.Report.ComputeCycles = 101 },
		"zero utilization":            func(r *serve.SolveResponse) { r.Report.PEUtilization = 0 },
		"utilization above compute":   func(r *serve.SolveResponse) { r.Report.PEUtilization = 0.6 },
		"compute utilization above 1": func(r *serve.SolveResponse) { r.Report.ComputeUtil = 1.5 },
		"rounds mismatch":             func(r *serve.SolveResponse) { r.Rounds = 4 },
	} {
		bad := good
		breakIt(&bad)
		if newChecker(nil).check(name, http.StatusOK, body(bad)) == "" {
			t.Errorf("%s: report accepted", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 30, End: 70},
		{Name: "b.child", Parent: 2, Start: 40, End: 50},
		{Name: "c", Parent: 0, Start: 60, End: 80}, // overlaps b
	}
	want := []int64{100 - 70, 20, 40 - 10, 10, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}
