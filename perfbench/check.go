package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"

	"github.com/atomic-dataflow/atomicflow/internal/serve"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// golden.json pins the digest of the leading requests of every workload
// at the default seed; -update-golden rewrites it. Digests depend on
// float rounding, so they apply only on the architecture that wrote them.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Arch    string            `json:"arch"`
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"` // request id -> digest
}

func loadGolden() (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Arch != runtime.GOARCH {
		return nil, nil
	}
	return g.Digests, nil
}

// seen is what the checker remembers about one request id.
type seen struct {
	bodySum [32]byte
	digest  string
	rep     sim.Report
}

// checker validates every /solve response and remembers one digest and
// Report per request id. It is safe for concurrent use.
type checker struct {
	golden map[string]string

	mu   sync.Mutex
	byID map[string]*seen
}

func newChecker(golden map[string]string) *checker {
	return &checker{golden: golden, byID: make(map[string]*seen)}
}

// check returns "" for a good response, else the reason it failed.
func (c *checker) check(id string, status int, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d", status)
	}
	sum := sha256.Sum256(body)
	c.mu.Lock()
	prev := c.byID[id]
	c.mu.Unlock()
	if prev != nil && prev.bodySum == sum {
		return "" // byte-identical to a response already checked
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "undecodable body"
	}
	if why := checkReport(resp); why != "" {
		return why
	}
	if want, ok := c.golden[id]; ok && resp.Digest != want {
		return "digest differs from golden"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.byID[id]; prev != nil && prev.digest != resp.Digest {
		return "repeat of a key returned another digest"
	}
	c.byID[id] = &seen{bodySum: sum, digest: resp.Digest, rep: resp.Report}
	return ""
}

// checkReport enforces the invariants every simulated Report must hold.
func checkReport(r serve.SolveResponse) string {
	rep := r.Report
	switch {
	case rep.Cycles <= 0:
		return "report: cycles <= 0"
	case rep.ComputeCycles > rep.Cycles:
		return "report: compute cycles > cycles"
	case !(rep.PEUtilization > 0):
		return "report: pe utilization <= 0"
	case rep.PEUtilization > rep.ComputeUtil:
		return "report: pe utilization > compute utilization"
	case rep.ComputeUtil > 1:
		return "report: compute utilization > 1"
	case rep.Rounds != r.Rounds:
		return "report: rounds differ from the response's rounds"
	}
	return ""
}

func (c *checker) get(id string) *seen {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byID[id]
}

// updateGolden solves the warm-up requests and the fixed request set of
// every workload at the default seed and pins their digests in path.
func updateGolden(path string) error {
	const seed = 1
	gf := goldenFile{Arch: runtime.GOARCH, Seed: seed, Digests: make(map[string]string)}
	for _, w := range workloads {
		specs := w.warmSpecs(seed)
		if w.Loop == "closed" {
			for i := 0; i < w.Fixed; i++ {
				specs = append(specs, w.closedSpec(seed, i))
			}
		} else {
			specs = append(specs, w.openPlan(seed, w.Fixed)...)
		}
		enc, err := newEncoder(w)
		if err != nil {
			return err
		}
		s, err := startServer(1)
		if err != nil {
			return err
		}
		chk := newChecker(nil)
		err = (&loadgen{w: w, seed: seed, enc: enc, chk: chk}).warm(s, specs)
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, sp := range specs {
			gf.Digests[w.id(sp)] = chk.get(w.id(sp)).digest
		}
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
