package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/store"
)

// TestStoreReplayAcrossRestart is the persistence contract: after the
// serving process restarts (new Server, new Store handle, same
// directory), a repeated request is answered from the store with the
// byte-identical body — no re-solve — and the hit backfills the LRU so
// the next repeat is an ordinary cache hit.
func TestStoreReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, Store: st1})
	body := `{"model":"tinybranch","sa_iters":120,"seed":3}`
	resp1, b1 := postSolve(t, ts1, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, b1)
	}
	if src := resp1.Header.Get("X-Adserve-Cache"); src != "miss" {
		t.Fatalf("first solve was %q, want miss", src)
	}

	// "Restart": drain the first server, then bring up a second one over
	// a fresh Store handle on the same directory.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: st2})

	resp2, b2 := postSolve(t, ts2, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed solve: %d %s", resp2.StatusCode, b2)
	}
	if src := resp2.Header.Get("X-Adserve-Cache"); src != "store" {
		t.Fatalf("post-restart repeat was %q, want store", src)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("store replay changed the body:\n%s\nvs\n%s", b1, b2)
	}
	if d1, d2 := resp1.Header.Get("X-Adserve-Digest"), resp2.Header.Get("X-Adserve-Digest"); d1 != d2 {
		t.Fatalf("digest %q != %q across restart", d1, d2)
	}
	if s2.m.storeHits.Value() != 1 {
		t.Fatalf("store hits = %d, want 1", s2.m.storeHits.Value())
	}

	// The store hit backfilled the LRU: a second repeat never touches
	// the store again.
	resp3, _ := postSolve(t, ts2, body)
	if src := resp3.Header.Get("X-Adserve-Cache"); src != "hit" {
		t.Fatalf("second repeat was %q, want hit", src)
	}
	if s2.m.storeHits.Value() != 1 {
		t.Fatalf("store hits grew to %d on an LRU-served repeat", s2.m.storeHits.Value())
	}
}

// TestWarmStartEfficiency is the acceptance criterion for the warm-start
// path: solving a resnet-family graph warm-started from a stored
// solution of the same graph under different hardware must land within
// 2% of the cold solve's final cycles while issuing at most half the
// exact-Evaluate (oracle miss) calls.
func TestWarmStartEfficiency(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Donor: tinyresnet solved on the default 8x8 mesh, persisted.
	_, donorTS := newTestServer(t, Config{Workers: 1, Store: st})
	if resp, body := postSolve(t, donorTS, `{"model":"tinyresnet","sa_iters":300,"seed":11}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("donor solve: %d %s", resp.StatusCode, body)
	}

	// Same graph on a 4x4 mesh. Cold reference runs on a storeless
	// server; the warm run shares the store. Each server owns a fresh
	// cost oracle, so its cost_memo_misses gauge after the single solve
	// is exactly that solve's exact-Evaluate count.
	req := `{"model":"tinyresnet","sa_iters":300,"seed":11,"hardware":{"mesh_w":4,"mesh_h":4}%s}`
	coldSrv, coldTS := newTestServer(t, Config{Workers: 1})
	respC, bodyC := postSolve(t, coldTS, fmt.Sprintf(req, ""))
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %d %s", respC.StatusCode, bodyC)
	}
	coldMisses := coldSrv.m.memoMisses.Value()

	warmSrv, warmTS := newTestServer(t, Config{Workers: 1, Store: st})
	respW, bodyW := postSolve(t, warmTS, fmt.Sprintf(req, `,"warm_start":true`))
	if respW.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d %s", respW.StatusCode, bodyW)
	}
	warmMisses := warmSrv.m.memoMisses.Value()
	if warmSrv.m.warmStarts.Value() != 1 {
		t.Fatalf("warm solve did not use the donor (warm_starts=%d)", warmSrv.m.warmStarts.Value())
	}

	var cold, warm SolveResponse
	if err := json.Unmarshal(bodyC, &cold); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyW, &warm); err != nil {
		t.Fatal(err)
	}
	if cold.Report.Cycles <= 0 || warm.Report.Cycles <= 0 {
		t.Fatalf("cycles: cold %v, warm %v", cold.Report.Cycles, warm.Report.Cycles)
	}
	rel := math.Abs(float64(warm.Report.Cycles)-float64(cold.Report.Cycles)) / float64(cold.Report.Cycles)
	if rel > 0.02 {
		t.Fatalf("warm cycles %v vs cold %v: %.2f%% apart, want <=2%%",
			warm.Report.Cycles, cold.Report.Cycles, 100*rel)
	}
	if warmMisses*2 > coldMisses {
		t.Fatalf("warm start evaluated %v candidates exactly vs cold %v, want <=50%%",
			warmMisses, coldMisses)
	}
	t.Logf("cold: %v cycles, %v misses; warm: %v cycles, %v misses (%.1f%%)",
		cold.Report.Cycles, coldMisses, warm.Report.Cycles, warmMisses, 100*warmMisses/coldMisses)
}

// TestWarmStartColdWithoutStore pins the storeless-server behavior the
// request doc promises: warm_start=true on a server with no store (or no
// donor) solves cold and succeeds — the flag only changes the cache key.
func TestWarmStartColdWithoutStore(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postSolve(t, ts, `{"model":"tinyconv","sa_iters":80,"warm_start":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve without store: %d %s", resp.StatusCode, body)
	}
	if s.m.warmStarts.Value() != 0 {
		t.Fatalf("warm_starts = %d on a storeless server", s.m.warmStarts.Value())
	}

	// warm_start participates in the cache key: the cold spelling of the
	// same request is a distinct entry, not a cache hit.
	resp2, _ := postSolve(t, ts, `{"model":"tinyconv","sa_iters":80}`)
	if src := resp2.Header.Get("X-Adserve-Cache"); src != "miss" {
		t.Fatalf("cold spelling was %q, want miss (distinct key)", src)
	}
}
