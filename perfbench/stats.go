package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the percentile is a single outlier's value.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// how many samples rank above it. xs need not be sorted; it is not
// modified.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank median (0 for no samples).
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// tailPercentile reports the highest of p90, p99 and p99.9 that has at
// least minBeyond samples beyond it; ok is false when even p90 has not.
func tailPercentile(xs []float64) (q, v float64, ok bool) {
	for _, c := range []float64{0.999, 0.99, 0.9} {
		if pv, beyond := quantile(xs, c); beyond >= minBeyond {
			return c, pv, true
		}
	}
	return 0, 0, false
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
