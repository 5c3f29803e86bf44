package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailWindow is the fewest samples in one window of windowedTail.
const tailWindow = 250

// median of sorted values (the mean of the middle two for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailPercentile returns the highest nearest-rank percentile of sorted
// values that has at least minBeyond samples beyond it: the value at rank
// n-minBeyond, and the percentile 100(n-minBeyond)/n that rank stands
// for. ok is false when there are too few samples for any percentile.
func tailPercentile(sorted []float64) (value, pct float64, ok bool) {
	n := len(sorted)
	k := n - minBeyond // 1-based rank
	if k < 1 {
		return 0, 0, false
	}
	return sorted[k-1], 100 * float64(k) / float64(n), true
}

// windowedTail cuts samples, in the order they were sent, into k =
// max(1, n/tailWindow) consecutive windows of near-equal size, takes the
// tailPercentile of each window and returns the median of the window
// values and of their percentiles. A run of fewer than 2*tailWindow
// samples is one window, so this is tailPercentile of the whole run; a
// longer run's tail is not set by a stall that hits one window in k.
func windowedTail(samples []float64) (value, pct float64, k int, ok bool) {
	n := len(samples)
	k = max(1, n/tailWindow)
	vals, pcts := make([]float64, k), make([]float64, k)
	for i := range k {
		v, p, wok := tailPercentile(sorted(samples[i*n/k : (i+1)*n/k]))
		if !wok {
			return 0, 0, k, false
		}
		vals[i], pcts[i] = v, p
	}
	return median(sorted(vals)), median(sorted(pcts)), k, true
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(k, 1), len(sorted))-1]
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
