package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/buffer"
)

// TestFlowOrderMatchesComparisonSort checks flowSorter's group-first
// order against a plain stable comparison sort by (Src, |key|, key, Dst)
// on random Rounds: unicast flows (Tag 0), ifmap tags, weight tags at or
// above 1<<60, positive tags beyond the dense table, one tag sent from
// several sources, duplicate (Src, Tag, Dst) entries, and empty and
// single-flow Rounds. One sorter serves every Round, so the epoch-stamped
// tables are reused the way the simulator reuses them.
func TestFlowOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var fs flowSorter
	var got []keyedFlow
	for trial := 0; trial < 400; trial++ {
		var n int
		switch trial % 4 {
		case 0:
			n = trial % 3 // empty, single-flow and two-flow Rounds
		case 1:
			n = rng.Intn(20)
		default:
			n = rng.Intn(2000)
		}
		engines := 1 + rng.Intn(300)
		tags := 1 + rng.Intn(50)
		flows := make([]buffer.Flow, 0, n)
		for len(flows) < n {
			f := buffer.Flow{Src: rng.Intn(engines), Dst: rng.Intn(engines), Bytes: int64(1 + rng.Intn(4096))}
			switch rng.Intn(6) {
			case 0: // unicast
			case 1: // weight slice, forwarded from any holder
				f.Tag = 1<<60 | int64(rng.Intn(tags))<<40 | int64(rng.Intn(4))<<20 | 8
			case 2: // positive tag too large for the dense table
				f.Tag = maxDenseTag + int64(rng.Intn(tags))
			default: // ifmap tag: one producer, often several sources in tests
				f.Tag = int64(rng.Intn(tags)) + 1
			}
			flows = append(flows, f)
			if rng.Intn(8) == 0 && len(flows) < n { // duplicate (Src, Tag, Dst)
				flows = append(flows, f)
			}
		}
		got = fs.sort(flows, got)

		idx := make([]int, len(flows))
		for i := range idx {
			idx[i] = i
		}
		abs := func(k int64) int64 { return max(k, -k) }
		slices.SortStableFunc(idx, func(i, j int) int {
			x, y := flows[i], flows[j]
			kx, ky := x.GroupKey(), y.GroupKey()
			return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(abs(kx), abs(ky)),
				cmp.Compare(kx, ky), cmp.Compare(x.Dst, y.Dst))
		})
		want := make([]keyedFlow, len(flows))
		for p, i := range idx {
			f := flows[i]
			want[p] = keyedFlow{okey: okeyOf(f.GroupKey()), src: int32(f.Src), dst: int32(f.Dst), idx: int32(i)}
		}
		if !slices.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%d flows): position %d is %+v, want %+v", trial, n, i, got[i], want[i])
				}
			}
			t.Fatalf("trial %d: %d flows ordered, want %d", trial, len(got), len(want))
		}
	}
}
