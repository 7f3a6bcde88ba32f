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

// packedMulVecTo is the serving decide's mat-vec: through m's panels when
// PackVecPanels packs them (the lane kernels are on), through
// Matrix.MulVecTo otherwise.
func packedMulVecTo(m *Matrix, dst, x []float64) {
	if p := PackVecPanels(m); p != nil {
		p.MulVecTo(dst, x)
		return
	}
	m.MulVecTo(dst, x)
}

// mulVecMismatch reports the first output where MulVecTo or the packed
// path, each on every kernel set the CPU has (pure Go, AVX2, and ZMM,
// whose packing runs transpose8), differs in its bits from the ascending reference, or "". Any two NaNs
// match: which payload a NaN sum carries depends on operand order in a
// commutative add, which the compiler may pick either way, and no caller
// reads NaN payloads.
func mulVecMismatch(m *Matrix, x []float64) string {
	want := ascendingDots(m, x)
	got := make([]float64, m.Rows)
	for _, set := range []laneSet{goSet, avx2Set, zmmSet} {
		if (set.avx2 && !haveAVX2) || (set.avx512 && !haveAVX512) {
			continue
		}
		for _, path := range []struct {
			name string
			run  func()
		}{
			{"MulVecTo", func() { m.MulVecTo(got, x) }},
			{"packed MulVecTo", func() { packedMulVecTo(m, got, x) }},
		} {
			for i := range got {
				got[i] = 42
			}
			set.use(path.run)
			for i, w := range want {
				if !sameBits(got[i], w) {
					return fmt.Sprintf("%dx%d row %d, %s: %s %v (%#x), ascending dot %v (%#x)",
						m.Rows, m.Cols, i, set.name, path.name, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
				}
			}
		}
	}
	return ""
}

// TestMulVecToMatchesAscendingDot pins the row-blocked kernel and the
// packed lane path to the plain ascending dot product bit for bit: row
// counts in every residue mod 8 (the packed path's padded last panel) and
// so mod 4 (the row block's tail), rows below one panel, one and two
// four-panel passes, empty and one-column rows, the serving shapes, signed
// zeros (a +0 start keeps an all-(-0) row at +0), Inf/NaN propagation and
// overflow.
func TestMulVecToMatchesAscendingDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	shapes := [][2]int{{1, 1}, {2, 3}, {3, 0}, {4, 7}, {5, 7}, {6, 7}, {7, 7}, {64, 4}, {4, 64}, {256, 256},
		{8, 0}, {13, 0}, {8, 1}, {37, 1}, {32, 5}, {40, 9}, {64, 64}, {65, 3}, {100, 17}}
	for r := 8; r < 16; r++ {
		shapes = append(shapes, [2]int{r, 11}, [2]int{r + 32, 6})
	}
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

	// Each special row block sits in MulVecTo's four-row blocks and their
	// tail (7 rows), and in the packed path's four-panel pass, its
	// one-panel pass and its padded last panel (45 rows).
	x := []float64{negZero, 2, 1}
	for _, c := range []struct {
		rows  int
		bases []int
	}{{7, []int{0, 4}}, {45, []int{0, 5, 29, 33, 41}}} {
		m := NewRandn(c.rows, 3, 1, rng)
		for _, i := range c.bases {
			copy(m.Row(i), []float64{1, negZero, negZero}) // every product -0: sum must be +0
			if i+1 < c.rows {
				copy(m.Row(i+1), []float64{math.Inf(1), 1, 1}) // Inf·(-0) = NaN
			}
			if i+2 < c.rows {
				copy(m.Row(i+2), []float64{1, math.Inf(-1), math.NaN()}) // -Inf then NaN
			}
			if i+3 < c.rows {
				copy(m.Row(i+3), []float64{1, math.MaxFloat64, math.MaxFloat64}) // overflow to +Inf
			}
		}
		if msg := mulVecMismatch(m, x); msg != "" {
			t.Fatal(msg)
		}
		got := make([]float64, m.Rows)
		m.MulVecTo(got, x)
		for _, i := range c.bases {
			if math.Signbit(got[i]) {
				t.Fatalf("%d rows: all-(-0) row %d gave %v, want +0", c.rows, i, got[i])
			}
			if i+3 < c.rows && (!math.IsNaN(got[i+1]) || !math.IsNaN(got[i+2]) || !math.IsInf(got[i+3], 1)) {
				t.Fatalf("%d rows: Inf/NaN rows %d–%d gave %v", c.rows, i+1, i+3, got[i+1:i+4])
			}
		}
	}
}

// FuzzMulVecTo is the differential target for the mat-vec kernels: the
// shape, then matrix and vector entries are decoded from the fuzz input,
// and MulVecTo and the packed path, with the lane kernels on and off, must
// equal the ascending reference bit for bit.
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
// actor width (64) and the paper's (256, 512): Matrix.MulVecTo, and the
// packed lane path where the CPU has AVX2.
func BenchmarkMulVecTo(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		m := NewRandn(n, n, 1, rng)
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("%dx%d/generic", n, n), func(b *testing.B) {
			for b.Loop() {
				m.MulVecTo(dst, x)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/packed", n, n), func(b *testing.B) {
			p := PackVecPanels(m)
			if p == nil {
				b.Skip("lane kernels off: nothing is packed")
			}
			for b.Loop() {
				p.MulVecTo(dst, x)
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
