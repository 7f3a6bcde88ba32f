package mat

import (
	"math/rand"
	"testing"
)

// naiveMul is the reference triple loop for dst = a·b.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulToMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Spans the degenerate, sub-block, and multi-block regimes.
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {7, 64, 9}, {64, 13, 130}, {130, 70, 65}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(m, k, rng), randMat(k, n, rng)
		dst := New(m, n)
		dst.MulTo(a, b)
		want := naiveMul(a, b)
		if !dst.Equal(want, 1e-12) {
			t.Fatalf("MulTo %dx%d*%dx%d differs from naive product", m, k, k, n)
		}
	}
}

func TestMulToMatchesMulVecPerRow(t *testing.T) {
	// The batched kernel must reproduce the per-sample kernel: row i of
	// a·wᵀ equals w·aᵢ computed with MulVecTo, bit for bit (identical
	// accumulation order).
	rng := rand.New(rand.NewSource(2))
	a := randMat(64, 33, rng)
	w := randMat(17, 33, rng)
	dst := New(64, 17)
	dst.MulTransTo(a, w)
	vec := make([]float64, 17)
	for i := 0; i < a.Rows; i++ {
		w.MulVecTo(vec, a.Row(i))
		for j, v := range vec {
			if dst.At(i, j) != v {
				t.Fatalf("row %d col %d: MulTransTo %g != MulVecTo %g", i, j, dst.At(i, j), v)
			}
		}
	}
}

func TestMulTransToMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(31, 21, rng)
	b := randMat(77, 21, rng)
	dst := New(31, 77)
	dst.MulTransTo(a, b)
	want := naiveMul(a, b.Transpose())
	if !dst.Equal(want, 1e-12) {
		t.Fatal("MulTransTo differs from naive a·bᵀ")
	}
}

func TestAddMulATBScaledMatchesOuterProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const batch, m, n = 37, 11, 23
	a := randMat(batch, m, rng)
	b := randMat(batch, n, rng)
	got := randMat(m, n, rng)
	want := got.Clone()
	got.AddMulATBScaled(a, b, 0.5)
	for r := 0; r < batch; r++ {
		want.AddOuterScaled(a.Row(r), b.Row(r), 0.5)
	}
	if !got.Equal(want, 0) {
		t.Fatal("AddMulATBScaled differs from sequential AddOuterScaled calls")
	}
}

func TestAddRowVector(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(5, 4, rng)
	v := []float64{1, -2, 3, -4}
	want := a.Clone()
	a.AddRowVector(v)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != want.At(i, j)+v[j] {
				t.Fatalf("(%d,%d): got %g want %g", i, j, a.At(i, j), want.At(i, j)+v[j])
			}
		}
	}
}

func TestGemmDimensionPanics(t *testing.T) {
	a, b := New(3, 4), New(5, 6)
	for name, fn := range map[string]func(){
		"MulTo inner":      func() { New(3, 6).MulTo(a, b) },
		"MulTo dst":        func() { New(2, 2).MulTo(a, New(4, 6)) },
		"MulTransTo inner": func() { New(3, 5).MulTransTo(a, b) },
		"AddMulATBScaled":  func() { New(4, 6).AddMulATBScaled(a, b, 1) },
		"AddRowVector len": func() { a.AddRowVector(make([]float64, 3)) },
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

func TestMatrixStringFormat(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2.5, -3, 4})
	got := m.String()
	want := "Matrix(2x2)[1 2.5; -3 4]"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
