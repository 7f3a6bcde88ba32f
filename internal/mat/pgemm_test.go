package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"miras/internal/parallel"
)

// withWorkers runs fn under each of the given parallel worker bounds,
// restoring the default afterwards.
func withWorkers(t *testing.T, counts []int, fn func(w int) *Matrix) map[int]*Matrix {
	t.Helper()
	defer parallel.SetMaxWorkers(0)
	out := make(map[int]*Matrix)
	for _, w := range counts {
		parallel.SetMaxWorkers(w)
		out[w] = fn(w)
	}
	return out
}

// workerCounts spans the serial path, small fan-outs, an odd count, and
// whatever the host really has.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

func requireBitIdentical(t *testing.T, results map[int]*Matrix, context string) {
	t.Helper()
	ref, refW := (*Matrix)(nil), 0
	for w, m := range results {
		if ref == nil {
			ref, refW = m, w
			continue
		}
		for i, v := range m.Data {
			if v != ref.Data[i] {
				t.Fatalf("%s: entry %d differs between %d and %d workers: %v vs %v",
					context, i, refW, w, ref.Data[i], v)
			}
		}
	}
}

// TestGemmBitIdenticalAcrossWorkers pins the tentpole determinism claim:
// the tiled parallel kernels produce byte-for-byte the serial result for
// any worker count, on shapes spanning both sides of the parallel
// threshold and odd row counts that leave ragged final tiles. Against the
// 2²²-flop threshold, 2·m·k·n is 2⁵·⁹ for {3,5,2}, 2¹⁹ for {64,64,64}
// (every train-msd hidden product), 2²¹ for {256,64,64} and ≈ 2²¹·¹ for
// {67,130,129} and {129,257,33} (strictly below), and ≈ 2²²·¹ for
// {67,130,257} and {129,257,67} and 2²³ for {64,256,256} (strictly above).
// It runs once per kernel set: ZMM, AVX2 and pure Go.
func TestGemmBitIdenticalAcrossWorkers(t *testing.T) {
	for _, set := range []laneSet{zmmSet, avx2Set, goSet} {
		t.Run(set.name, func(t *testing.T) {
			set.require(t)
			set.use(func() { gemmAcrossWorkers(t) })
		})
	}
}

func gemmAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{3, 5, 2}, {64, 64, 64}, {64, 256, 256}, {67, 130, 129}, {256, 64, 64}, {129, 257, 33}, {67, 130, 257}, {129, 257, 67}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(m, k, rng), randMat(k, n, rng)
		bt := randMat(n, k, rng)

		mul := withWorkers(t, workerCounts(), func(int) *Matrix {
			dst := New(m, n)
			dst.MulTo(a, b)
			return dst
		})
		requireBitIdentical(t, mul, "MulTo")

		mulT := withWorkers(t, workerCounts(), func(int) *Matrix {
			dst := New(m, n)
			dst.MulTransTo(a, bt)
			return dst
		})
		requireBitIdentical(t, mulT, "MulTransTo")

		p, q := randMat(k, m, rng), randMat(k, n, rng)
		rank := withWorkers(t, workerCounts(), func(int) *Matrix {
			dst := New(m, n)
			for i := range dst.Data {
				dst.Data[i] = 0.25
			}
			dst.AddMulATBScaled(p, q, 0.5)
			return dst
		})
		requireBitIdentical(t, rank, "AddMulATBScaled")
	}
}

// biasEpilogue adds a constant per-column bias, the simplest nontrivial
// epilogue.
type biasEpilogue struct{ b []float64 }

func (e *biasEpilogue) ApplyRow(_ int, row []float64) {
	for j, v := range e.b {
		row[j] += v
	}
}

// TestFusedEpilogueMatchesSeparatePasses checks the fused bias epilogue
// equals a plain product followed by AddRowVector, bit for bit, serial and
// parallel.
func TestFusedEpilogueMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range [][3]int{{5, 9, 4}, {64, 256, 256}, {63, 127, 65}} {
		m, k, n := s[0], s[1], s[2]
		a, bt := randMat(m, k, rng), randMat(n, k, rng)
		bias := make([]float64, n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}

		want := New(m, n)
		want.MulTransTo(a, bt)
		want.AddRowVector(bias)

		fused := withWorkers(t, workerCounts(), func(int) *Matrix {
			dst := New(m, n)
			dst.MulTransEpilogueTo(a, bt, &biasEpilogue{b: bias})
			return dst
		})
		fused[-1] = want
		requireBitIdentical(t, fused, "fused epilogue")
	}
}

// TestMulToBufReusesBuffer checks the caller-owned pack buffer variant is
// correct and allocation-free once the buffer is warm.
func TestMulToBufReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b := randMat(17, 31, rng), randMat(31, 23, rng)
	dst := New(17, 23)
	var buf []float64
	dst.MulToBuf(a, b, &buf, nil)
	want := naiveMul(a, b)
	for i := range dst.Data {
		if diff := dst.Data[i] - want.Data[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("entry %d: got %v want %v", i, dst.Data[i], want.Data[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { dst.MulToBuf(a, b, &buf, nil) }); allocs != 0 {
		t.Fatalf("MulToBuf with warm buffer: %v allocs/run, want 0", allocs)
	}
}

// TestMulColsToBufMatchesMulTo checks a column-window product equals the
// matching columns of the full product bit for bit — windows at the left
// edge, in the middle and at the right edge, narrower and wider than the
// 4-column micro-kernel group — and is allocation-free once its buffer is
// warm.
func TestMulColsToBufMatchesMulTo(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b := randMat(33, 70, rng), randMat(70, 67, rng)
	full := New(33, 67)
	full.MulTo(a, b)
	var buf []float64
	for _, w := range [][2]int{{0, 4}, {0, 67}, {63, 4}, {30, 7}, {66, 1}} {
		c0, n := w[0], w[1]
		dst := New(33, n)
		dst.MulColsToBuf(a, b, c0, &buf)
		for i := 0; i < dst.Rows; i++ {
			for j, v := range dst.Row(i) {
				if want := full.At(i, c0+j); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("window [%d,%d) entry (%d,%d): %v, want %v", c0, c0+n, i, j, v, want)
				}
			}
		}
	}
	dst := New(33, 4)
	if allocs := testing.AllocsPerRun(20, func() { dst.MulColsToBuf(a, b, 63, &buf) }); allocs != 0 {
		t.Fatalf("MulColsToBuf with warm buffer: %v allocs/run, want 0", allocs)
	}
	for name, fn := range map[string]func(){
		"window past the edge": func() { New(33, 5).MulColsToBuf(a, b, 63, &buf) },
		"negative offset":      func() { New(33, 2).MulColsToBuf(a, b, -1, &buf) },
		"inner mismatch":       func() { New(33, 2).MulColsToBuf(a, a, 0, &buf) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
