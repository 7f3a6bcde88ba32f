package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestVecBasicOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := VecDot(x, y); got != 32 {
		t.Fatalf("VecDot=%g, want 32", got)
	}
	if got := VecSum(x); got != 6 {
		t.Fatalf("VecSum=%g, want 6", got)
	}
	if got := VecMean(x); got != 2 {
		t.Fatalf("VecMean=%g, want 2", got)
	}
	if got := VecNorm([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("VecNorm=%g, want 5", got)
	}
	if got := VecDist(x, y); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Fatalf("VecDist=%g", got)
	}
}

func TestVecAddScaledInPlace(t *testing.T) {
	x := []float64{1, 1}
	VecAddScaled(x, []float64{2, 4}, 0.5)
	if x[0] != 2 || x[1] != 3 {
		t.Fatalf("VecAddScaled=%v", x)
	}
}

func TestVecMinMaxArgmax(t *testing.T) {
	x := []float64{3, -1, 7, 7, 2}
	if VecMax(x) != 7 {
		t.Fatal("VecMax wrong")
	}
	if VecMin(x) != -1 {
		t.Fatal("VecMin wrong")
	}
	if VecArgmax(x) != 2 {
		t.Fatalf("VecArgmax=%d, want first maximal index 2", VecArgmax(x))
	}
}

func TestVecMeanEmptyIsZero(t *testing.T) {
	if VecMean(nil) != 0 {
		t.Fatal("VecMean(nil) should be 0")
	}
	if VecStd([]float64{5}) != 0 {
		t.Fatal("VecStd of single element should be 0")
	}
}

func TestVecCloneIndependence(t *testing.T) {
	x := []float64{1, 2}
	c := VecClone(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("VecClone aliased input")
	}
}

func TestSoftmaxHandComputed(t *testing.T) {
	x := []float64{0, 0}
	dst := make([]float64, 2)
	Softmax(dst, x)
	if math.Abs(dst[0]-0.5) > 1e-12 || math.Abs(dst[1]-0.5) > 1e-12 {
		t.Fatalf("Softmax uniform wrong: %v", dst)
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	x := []float64{1000, 1001, 999}
	dst := make([]float64, 3)
	Softmax(dst, x)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Softmax unstable on large inputs: %v", dst)
		}
	}
	if VecArgmax(dst) != 1 {
		t.Fatalf("Softmax should preserve argmax: %v", dst)
	}
}

// Property: softmax output is on the probability simplex and order-preserving.
func TestSoftmaxSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		dst := make([]float64, n)
		Softmax(dst, x)
		sum := VecSum(dst)
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for i := range dst {
			if dst[i] < 0 || dst[i] > 1 {
				return false
			}
		}
		// Order preservation: argmax of input equals argmax of output.
		return VecArgmax(x) == VecArgmax(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileHandComputed(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(x, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%g)=%g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	x := []float64{5, 1, 3}
	Percentile(x, 50)
	if x[0] != 5 || x[1] != 1 || x[2] != 3 {
		t.Fatalf("Percentile mutated input: %v", x)
	}
}

func TestPercentileSingleElement(t *testing.T) {
	if got := Percentile([]float64{42}, 75); got != 42 {
		t.Fatalf("Percentile single=%g, want 42", got)
	}
}

// Property: Percentile(50) matches the true median and sits inside
// [min, max] for every input, and agrees with a sort-based reference.
func TestPercentileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 100
		}
		p := r.Float64() * 100
		got := Percentile(x, p)
		ref := append([]float64(nil), x...)
		sort.Float64s(ref)
		rank := p / 100 * float64(n-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		frac := rank - float64(lo)
		want := ref[lo]*(1-frac) + ref[hi]*frac
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestVecStdKnownValue(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := VecStd(x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("VecStd=%g, want 2", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	funcs := map[string]func(){
		"VecDot":  func() { VecDot([]float64{1}, []float64{1, 2}) },
		"VecDist": func() { VecDist([]float64{1}, []float64{1, 2}) },
		"Softmax": func() { Softmax(make([]float64, 1), []float64{1, 2}) },
	}
	for name, f := range funcs {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestVecScale(t *testing.T) {
	x := []float64{2, -4}
	VecScale(x, 0.5)
	if x[0] != 1 || x[1] != -2 {
		t.Fatalf("VecScale=%v", x)
	}
}

func TestEmptySlicePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"VecMax":     func() { VecMax(nil) },
		"VecMin":     func() { VecMin(nil) },
		"VecArgmax":  func() { VecArgmax(nil) },
		"Percentile": func() { Percentile(nil, 50) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on empty input", name)
				}
			}()
			f()
		}()
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestSoftmaxEmptyIsNoop(t *testing.T) {
	Softmax(nil, nil) // must not panic
}

func TestPercentileLargeInputUsesShellSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := Percentile(x, 50)
	ref := append([]float64(nil), x...)
	sort.Float64s(ref)
	want := (ref[999] + ref[1000]) / 2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("median=%g, want %g", got, want)
	}
}
