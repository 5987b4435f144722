package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the figure is one slow request, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of sorted,
// and false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n-1-i >= minBeyond
}

// median of an unsorted slice; it does not apply the minBeyond rule, which
// is for latency samples, not for repeated measurements.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile of v as a
// share of its median, with the quartiles Python's statistics.quantiles(v,
// n=4) gives (the exclusive method). It needs at least two values.
func spread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}
