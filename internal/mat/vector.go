package mat

import (
	"fmt"
	"math"
)

// This file contains the free vector helpers used throughout the learning
// and control code. Vectors are plain []float64 slices; helpers either
// allocate fresh results (suffix-free names) or write into a destination
// argument (…To names) for hot loops.

// VecClone returns a copy of x.
func VecClone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// VecAddScaled adds s*y to x in place.
func VecAddScaled(x, y []float64, s float64) {
	checkSameLen("VecAddScaled", x, y)
	for i := range x {
		x[i] += s * y[i]
	}
}

// VecScale multiplies x by s in place.
func VecScale(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}

// VecDot returns the inner product of x and y.
func VecDot(x, y []float64) float64 {
	checkSameLen("VecDot", x, y)
	var sum float64
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum
}

// VecSum returns the sum of the entries of x.
func VecSum(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum
}

// VecMean returns the arithmetic mean of x, or 0 for an empty slice.
func VecMean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return VecSum(x) / float64(len(x))
}

// VecStd returns the population standard deviation of x, or 0 for fewer
// than two entries.
func VecStd(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	mean := VecMean(x)
	var sum float64
	for _, v := range x {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(x)))
}

// VecNorm returns the Euclidean norm of x.
func VecNorm(x []float64) float64 {
	return math.Sqrt(VecDot(x, x))
}

// VecDist returns the Euclidean distance between x and y.
func VecDist(x, y []float64) float64 {
	checkSameLen("VecDist", x, y)
	var sum float64
	for i := range x {
		d := x[i] - y[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// VecMax returns the maximum entry of x. It panics on an empty slice.
func VecMax(x []float64) float64 {
	if len(x) == 0 {
		panic("mat: VecMax of empty slice")
	}
	best := x[0]
	for _, v := range x[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// VecMin returns the minimum entry of x. It panics on an empty slice.
func VecMin(x []float64) float64 {
	if len(x) == 0 {
		panic("mat: VecMin of empty slice")
	}
	best := x[0]
	for _, v := range x[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// VecArgmax returns the index of the first maximal entry of x. It panics on
// an empty slice.
func VecArgmax(x []float64) int {
	if len(x) == 0 {
		panic("mat: VecArgmax of empty slice")
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of x into dst (which may alias x). It uses the
// max-subtraction trick for numerical stability.
func Softmax(dst, x []float64) {
	checkSameLen("Softmax", dst, x)
	if len(x) == 0 {
		return
	}
	max := VecMax(x)
	var sum float64
	for i, v := range x {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of x using linear
// interpolation between order statistics. x is not modified. It panics on
// an empty slice.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		panic("mat: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("mat: Percentile p=%g out of [0,100]", p))
	}
	sorted := VecClone(x)
	insertionSort(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// insertionSort is used instead of sort.Float64s to keep Percentile free of
// allocation-heavy interface dispatch for the small slices it typically
// sees; it falls back to a shell-sort gap sequence for large inputs.
func insertionSort(x []float64) {
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		if gap >= len(x) {
			continue
		}
		for i := gap; i < len(x); i++ {
			v := x[i]
			j := i
			for ; j >= gap && x[j-gap] > v; j -= gap {
				x[j] = x[j-gap]
			}
			x[j] = v
		}
	}
}

func checkSameLen(op string, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: %s length mismatch %d vs %d", op, len(x), len(y)))
	}
}
