package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by nearest rank:
// the smallest element with at least ⌈q·n⌉ elements at or below it. Zero
// for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// sortedCopy returns an ascending copy of x.
func sortedCopy(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// median returns the middle of x (mean of the two middle values for an even
// count), zero when empty.
func median(x []float64) float64 {
	s := sortedCopy(x)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of x by the exclusive
// method Python's statistics.quantiles(x, n=4) uses, so the spread printed
// here is the spread the acceptance rule computes. Fewer than two values
// have no spread: both quartiles are the single value (or zero).
func quartiles(x []float64) (q1, q3 float64) {
	s := sortedCopy(x)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k·(n+1)/4 (1-based), interpolated between neighbours;
		// the neighbour index is clamped, the weight is not — as in CPython.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailCandidates are the percentiles the tail rule may report, highest
// first, each with the n of "one sample in n lies beyond it".
var tailCandidates = []struct {
	pctl  float64
	oneIn int
}{
	{99.99, 10000}, {99.9, 1000}, {99.5, 200}, {99, 100}, {95, 20}, {90, 10}, {75, 4}, {50, 2},
}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it, so the reported tail is never one or two
// outliers. With fewer than twenty samples not even the median qualifies,
// and the median is what is reported.
func tailPercentile(n int) float64 {
	for _, c := range tailCandidates {
		if n >= 10*c.oneIn {
			return c.pctl
		}
	}
	return 50
}

// backlogGrowing reports whether an open-loop generator fell behind for
// good: the median send lateness of the last fifth of the phase exceeds
// both 1 ms and ten times that of the first fifth. lateUs holds each
// request's send lateness in schedule order.
func backlogGrowing(lateUs []float64) bool {
	n := len(lateUs)
	if n < 10 {
		return false
	}
	fifth := n / 5
	first := median(lateUs[:fifth])
	last := median(lateUs[n-fifth:])
	return last > 1000 && last > 10*first
}
