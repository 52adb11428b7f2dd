package main

import (
	"math"
	"sort"
)

// rankOf returns the nearest-rank position (1-based) of the p-th percentile
// among n ascending samples. The small epsilon keeps 99.9 % of 10000 at 9990
// where the float product lands a hair above it.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank method. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankOf(p, len(sorted))-1]
}

// tailLadder is the set of percentiles the harness is willing to name, lowest
// first. topPercentile walks it from the top.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// topPercentile returns the highest percentile of tailLadder that still has
// at least ten samples beyond it (choosing-metrics §1), and its value. With
// fewer than twenty samples even the median has fewer than ten beyond it and
// the median is returned.
func topPercentile(sorted []float64) (p, value float64) {
	n := len(sorted)
	for i := len(tailLadder) - 1; i > 0; i-- {
		p := tailLadder[i]
		if rank := rankOf(p, n); n-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	return 50, percentile(sorted, 50)
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (mean of the middle two for even counts),
// or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// betterQuartile returns the value a quarter of the way into xs from its
// better end — the high end if higher is better — by the nearest-rank method:
// of twenty values, the fifth best.
func betterQuartile(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := rankOf(25, len(s))
	if higherIsBetter {
		return s[len(s)-rank]
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so -compare reports the
// same spread the driver computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
