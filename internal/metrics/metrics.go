// Package metrics provides the summary statistics used to compare
// reproduced experiment series against the paper's qualitative claims:
// means, dispersion, RMSE between trajectories, and simple smoothing.
package metrics

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs (0 for fewer than
// two values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, v := range xs {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: RMSE over series of length %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a))), nil
}

// AUC returns the sum of the series — for response-time traces, lower
// total area means faster burst recovery, the headline comparison of
// Figs. 7–8.
func AUC(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// TailMean returns the mean of the final frac of the series (e.g. 0.25 for
// the last quarter) — the "long-term return" comparison in §VI-D. It
// panics unless 0 < frac ≤ 1.
func TailMean(xs []float64, frac float64) float64 {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("metrics: TailMean frac %g outside (0,1]", frac))
	}
	if len(xs) == 0 {
		return 0
	}
	start := len(xs) - int(math.Ceil(float64(len(xs))*frac))
	if start < 0 {
		start = 0
	}
	return Mean(xs[start:])
}

// Max returns the maximum of xs; it panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Max of empty series")
	}
	best := xs[0]
	for _, v := range xs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
