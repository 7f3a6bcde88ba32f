package mat

import (
	"fmt"
	"math"
	"testing"
)

// reluBranch and reluGradBranch are ReLU and its gradient as a branch per
// entry: the reference ReLUTo and ReLUGradTo must equal bit for bit.
func reluBranch(out, pre, b []float64) {
	for i, v := range pre {
		if v += b[i]; v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func reluGradBranch(dPre, out, dOut, dB []float64) {
	for i := range dPre {
		if out[i] > 0 {
			dPre[i] = dOut[i]
		} else {
			dPre[i] = 0
		}
		if dB != nil {
			dB[i] += dPre[i]
		}
	}
}

// TestReLULanesMatchBranch checks ReLUTo and ReLUGradTo on each kernel set
// against the branch per entry, bit for bit, on every pairing of the edge
// values — ±0, NaN of both signs, ±Inf, ±denormals, ±1, the largest
// finite — as pre-activation and bias, with dOut drawn from the same
// values; with a nil and a non-nil bias gradient (any two NaN sums count
// as equal there: which payload an add keeps follows the compiler's
// operand order); at every length mod 4 from 0; and in place.
func TestReLULanesMatchBranch(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000001)
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), negNaN, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2e-310, -2e-310, 1, -1, math.MaxFloat64}
	var pre, b, dOut []float64
	for i, p := range edges {
		for j, q := range edges {
			pre = append(pre, p)
			b = append(b, q)
			dOut = append(dOut, edges[(i+2*j)%len(edges)])
		}
	}
	forEachSet(t, func(t *testing.T, set laneSet) {
		set.use(func() {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 20, len(pre)} {
				if msg := reluMismatch(pre[:n], b[:n], dOut[:n], edges); msg != "" {
					t.Fatalf("length %d: %s", n, msg)
				}
			}
		})
	})
}

// firstDiff returns the first index where a and b differ in bits, or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// reluMismatch describes the first entry where ReLUTo or ReLUGradTo
// differs from the branch per entry ("" if none). ReLUGradTo reads the
// layer output; pre stands in for one as well, so negative, NaN and
// denormal outputs are masked too.
func reluMismatch(pre, b, dOut, edges []float64) string {
	n := len(pre)
	got, want := make([]float64, n), make([]float64, n)
	ReLUTo(got, pre, b)
	reluBranch(want, pre, b)
	inPlace := append([]float64(nil), pre...)
	ReLUTo(inPlace, inPlace, b)
	if i := max(firstDiff(got, want), firstDiff(inPlace, want)); i >= 0 {
		return fmt.Sprintf("ReLUTo(%v + %v) = %v, in place %v, branch %v", pre[i], b[i], got[i], inPlace[i], want[i])
	}
	for _, out := range [][]float64{want, pre} {
		for _, withDB := range []bool{false, true} {
			gotD, wantD := make([]float64, n), make([]float64, n)
			var gotDB, wantDB []float64
			if withDB {
				gotDB, wantDB = make([]float64, n), make([]float64, n)
				for i := range gotDB {
					gotDB[i] = edges[i%len(edges)]
					wantDB[i] = gotDB[i]
				}
			}
			ReLUGradTo(gotD, out, dOut, gotDB)
			reluGradBranch(wantD, out, dOut, wantDB)
			inPlace := append([]float64(nil), dOut...)
			ReLUGradTo(inPlace, out, inPlace, nil)
			if i := firstDiff(inPlace, wantD); i >= 0 {
				return fmt.Sprintf("ReLUGradTo in place at out %v, dOut %v = %v, branch %v", out[i], dOut[i], inPlace[i], wantD[i])
			}
			for i := range wantD {
				if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) {
					return fmt.Sprintf("ReLUGradTo dPre at out %v, dOut %v = %v, branch %v", out[i], dOut[i], gotD[i], wantD[i])
				}
				if withDB && !sameBits(gotDB[i], wantDB[i]) {
					return fmt.Sprintf("ReLUGradTo dB at out %v, dOut %v = %v, branch %v", out[i], dOut[i], gotDB[i], wantDB[i])
				}
			}
		}
	}
	return ""
}
