package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows, m.Cols)
	}
	if len(m.Data) != 12 {
		t.Fatalf("got data length %d, want 12", len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("new matrix not zeroed: %v", m.Data)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	New(-1, 2)
}

func TestNewFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("row-major layout wrong: %v", m)
	}
	// Must be a copy, not an alias.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("NewFromSlice aliased the input slice")
	}
}

func TestNewFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	NewFromSlice(2, 2, []float64{1, 2, 3})
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if got := m.At(1, 0); got != 7.5 {
		t.Fatalf("At(1,0)=%g, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for index %v", idx)
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestRowAliases(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.Row(1)
	row[0] = 40
	if m.At(1, 0) != 40 {
		t.Fatal("Row did not alias matrix storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliased source storage")
	}
}

func TestMulVecHandComputed(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec([]float64{1, 0, -1})
	want := []float64{-2, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec=%v, want %v", got, want)
		}
	}
}

func TestMulVecTransHandComputed(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	m.MulVecTransTo(dst, []float64{1, -1})
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecTrans=%v, want %v", dst, want)
		}
	}
}

func TestMulHandComputed(t *testing.T) {
	a := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	b := NewFromSlice(2, 2, []float64{5, 6, 7, 8})
	got := a.Mul(b)
	want := NewFromSlice(2, 2, []float64{19, 22, 43, 50})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul=%v, want %v", got, want)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible product")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestTranspose(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	if tr.At(0, 1) != 4 || tr.At(2, 0) != 3 {
		t.Fatalf("transpose entries wrong: %v", tr)
	}
}

func TestAddScaled(t *testing.T) {
	a := NewFromSlice(1, 3, []float64{1, 2, 3})
	b := NewFromSlice(1, 3, []float64{10, 20, 30})
	a.AddScaled(b, 0.5)
	want := []float64{6, 12, 18}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("AddScaled=%v, want %v", a.Data, want)
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := New(2, 2)
	m.AddOuterScaled([]float64{1, 2}, []float64{3, 4}, 2)
	want := NewFromSlice(2, 2, []float64{6, 8, 12, 16})
	if !m.Equal(want, 0) {
		t.Fatalf("AddOuterScaled=%v, want %v", m, want)
	}
}

func TestScaleAndZeroAndFill(t *testing.T) {
	m := NewFromSlice(1, 2, []float64{2, -4})
	m.Scale(0.5)
	if m.At(0, 0) != 1 || m.At(0, 1) != -2 {
		t.Fatalf("Scale wrong: %v", m)
	}
	m.Fill(3)
	if m.At(0, 0) != 3 || m.At(0, 1) != 3 {
		t.Fatalf("Fill wrong: %v", m)
	}
	m.Zero()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Fatalf("Zero wrong: %v", m)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := NewRandn(n, k, 1, r)
		b := NewRandn(k, m, 1, r)
		lhs := a.Mul(b).Transpose()
		rhs := b.Transpose().Mul(a.Transpose())
		return lhs.Equal(rhs, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix-vector product agrees with the full matrix product
// against a column matrix.
func TestMulVecAgreesWithMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 1+r.Intn(6), 1+r.Intn(6)
		a := NewRandn(n, k, 1, r)
		x := make([]float64, k)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		viaVec := a.MulVec(x)
		viaMat := a.Mul(NewFromSlice(k, 1, x))
		for i := range viaVec {
			if math.Abs(viaVec[i]-viaMat.At(i, 0)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing twice is the identity.
func TestDoubleTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewRandn(1+r.Intn(7), 1+r.Intn(7), 1, r)
		return a.Transpose().Transpose().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestNewHeAndXavierStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	he := NewHe(200, 200, 200, rng)
	std := VecStd(he.Data)
	wantStd := math.Sqrt(2.0 / 200)
	if math.Abs(std-wantStd) > wantStd*0.15 {
		t.Fatalf("He init std=%g, want about %g", std, wantStd)
	}
	xa := NewXavier(200, 200, rng)
	limit := math.Sqrt(6.0 / 400)
	if VecMax(xa.Data) > limit || VecMin(xa.Data) < -limit {
		t.Fatalf("Xavier init outside [-%g, %g]", limit, limit)
	}
}

func TestCopyFromAndAdd(t *testing.T) {
	a := NewFromSlice(1, 2, []float64{1, 2})
	b := New(1, 2)
	b.CopyFrom(a)
	if b.At(0, 1) != 2 {
		t.Fatalf("CopyFrom wrong: %v", b)
	}
	b.Add(a)
	if b.At(0, 0) != 2 || b.At(0, 1) != 4 {
		t.Fatalf("Add wrong: %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim mismatch")
		}
	}()
	b.CopyFrom(New(2, 2))
}

func TestStringRendering(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 3, 4.5})
	s := m.String()
	for _, want := range []string{"Matrix(2x2)", "1 2", "3 4.5", ";"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String()=%q missing %q", s, want)
		}
	}
}

func TestEqualDimensionMismatch(t *testing.T) {
	if New(1, 2).Equal(New(2, 1), 0) {
		t.Fatal("different shapes reported equal")
	}
}

func TestMulVecPanics(t *testing.T) {
	m := New(2, 3)
	for name, f := range map[string]func(){
		"short input":        func() { m.MulVec([]float64{1}) },
		"short output":       func() { m.MulVecTo(make([]float64, 1), make([]float64, 3)) },
		"trans short input":  func() { m.MulVecTransTo(make([]float64, 3), make([]float64, 1)) },
		"trans short output": func() { m.MulVecTransTo(make([]float64, 1), make([]float64, 2)) },
		"outer mismatch":     func() { m.AddOuterScaled(make([]float64, 1), make([]float64, 3), 1) },
		"addscaled mismatch": func() { m.AddScaled(New(1, 1), 1) },
		"row out of range":   func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// ascendingDots is the reference MulVecTo must reproduce: for each row one
// plain left-to-right chain 0 + w₀x₀ + w₁x₁ + ….
func ascendingDots(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		sum := 0.0
		for j := 0; j < m.Cols; j++ {
			sum = sum + m.Data[i*m.Cols+j]*x[j]
		}
		out[i] = sum
	}
	return out
}

// mulVecMismatch reports the first output where MulVecTo and the ascending
// reference differ in their bits, or "". Any two NaNs match: which payload
// a NaN sum carries depends on operand order in a commutative add, which
// the compiler may pick either way, and no caller reads NaN payloads.
func mulVecMismatch(m *Matrix, x []float64) string {
	got := make([]float64, m.Rows)
	m.MulVecTo(got, x)
	for i, want := range ascendingDots(m, x) {
		if math.IsNaN(got[i]) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			return fmt.Sprintf("%dx%d row %d: MulVecTo %v (%#x), ascending dot %v (%#x)",
				m.Rows, m.Cols, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	return ""
}

// TestMulVecToMatchesAscendingDot pins the row-blocked kernel to the plain
// ascending dot product bit for bit: row counts in every residue mod 4
// (the block's tail), the serving shapes, signed zeros (a +0 start keeps an
// all-(-0) row at +0), and Inf/NaN propagation.
func TestMulVecToMatchesAscendingDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	shapes := [][2]int{{1, 1}, {2, 3}, {3, 0}, {4, 7}, {5, 7}, {6, 7}, {7, 7}, {64, 4}, {4, 64}, {256, 256}}
	for _, s := range shapes {
		m := NewRandn(s[0], s[1], 1, rng)
		x := make([]float64, s[1])
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if msg := mulVecMismatch(m, x); msg != "" {
			t.Fatal(msg)
		}
	}

	// Rows 0–3 fill one block, rows 4–6 its tail; both paths get every case.
	m := New(7, 3)
	x := []float64{negZero, 2, 1}
	for _, i := range []int{0, 4} {
		copy(m.Row(i), []float64{1, negZero, negZero})           // every product -0: sum must be +0
		copy(m.Row(i+1), []float64{math.Inf(1), 1, 1})           // Inf·(-0) = NaN
		copy(m.Row(i+2), []float64{1, math.Inf(-1), math.NaN()}) // -Inf then NaN
	}
	copy(m.Row(3), []float64{1, math.MaxFloat64, math.MaxFloat64}) // overflow to +Inf
	if msg := mulVecMismatch(m, x); msg != "" {
		t.Fatal(msg)
	}
	got := make([]float64, m.Rows)
	m.MulVecTo(got, x)
	if math.Signbit(got[0]) || math.Signbit(got[4]) {
		t.Fatalf("all-(-0) rows gave %v and %v, want +0", got[0], got[4])
	}
	if !math.IsNaN(got[1]) || !math.IsNaN(got[2]) || !math.IsInf(got[3], 1) {
		t.Fatalf("Inf/NaN rows gave %v", got[1:4])
	}
}

// FuzzMulVecTo is the differential target for the row-blocked mat-vec
// kernel: the shape, then matrix and vector entries are decoded from the
// fuzz input, and MulVecTo must equal the ascending reference bit for bit.
func FuzzMulVecTo(f *testing.F) {
	f.Add([]byte{3, 5})
	f.Add([]byte{4, 4, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{63, 64, 1, 1, 1, 1, 0x80, 0x7f})
	f.Add([]byte{6, 2, 5, 1, 5, 6, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, x := decodeMulVecCase(data)
		if msg := mulVecMismatch(m, x); msg != "" {
			t.Fatalf("%s\ninput: %v", msg, data)
		}
	})
}

// mulVecSpecials are the values a fuzz byte below len(mulVecSpecials)
// stands for: signed zeros, infinities, NaN, and magnitudes that overflow
// or underflow in a product.
var mulVecSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1}

// decodeMulVecCase builds one MulVecTo case from fuzz bytes: 1–64 rows and
// 0–64 columns, entries from a fixed-seed random matrix and vector, and the
// bytes left after the shape overwrite matrix entries then vector entries
// in order.
func decodeMulVecCase(data []byte) (*Matrix, []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	rows, cols := 1+next()%64, next()%65
	rng := rand.New(rand.NewSource(1))
	m := NewRandn(rows, cols, 1, rng)
	x := make([]float64, cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	for _, vs := range [][]float64{m.Data, x} {
		for i := range vs {
			if len(data) == 0 {
				break
			}
			if b := next(); b < len(mulVecSpecials) {
				vs[i] = mulVecSpecials[b]
			} else {
				vs[i] = float64(int8(b)) / 16
			}
		}
	}
	return m, x
}

// BenchmarkMulVecTo times the serving decide's kernel at the benchmark's
// actor width (64) and the paper's (256, 512).
func BenchmarkMulVecTo(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := NewRandn(n, n, 1, rng)
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			dst := make([]float64, n)
			for b.Loop() {
				m.MulVecTo(dst, x)
			}
		})
	}
}

func TestNewHePanicsOnBadFanIn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHe(2, 2, 0, rand.New(rand.NewSource(1)))
}
