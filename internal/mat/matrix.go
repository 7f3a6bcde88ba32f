// Package mat provides the dense linear-algebra primitives used by the
// neural-network and control code in this repository. It implements the
// small subset of BLAS-like operations that multilayer perceptrons need:
// row-major matrices, matrix-matrix and matrix-vector products, elementwise
// maps, and a handful of reductions.
//
// The package is deliberately allocation-conscious: every operation has an
// in-place or destination-passing variant so the training hot loops can run
// without garbage. All operations panic on dimension mismatch — a mismatch
// is a programming error, not a runtime condition to recover from.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Use New, NewFromSlice, or one of the
// random initialisers to construct a sized matrix.
type Matrix struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// Data holds the entries in row-major order: element (i, j) is
	// Data[i*Cols+j]. Its length is always Rows*Cols.
	Data []float64
}

// New returns a zero-initialised matrix with the given dimensions.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFromSlice returns a rows×cols matrix backed by a copy of data, which
// must have exactly rows*cols elements in row-major order.
func NewFromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// NewRandn returns a rows×cols matrix with entries drawn i.i.d. from a
// Gaussian with the given standard deviation.
func NewRandn(rows, cols int, stddev float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
	return m
}

// NewXavier returns a rows×cols matrix initialised with Glorot/Xavier
// uniform scaling, appropriate for tanh/sigmoid layers.
func NewXavier(rows, cols int, rng *rand.Rand) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// NewHe returns a rows×cols matrix initialised with He/Kaiming Gaussian
// scaling, appropriate for ReLU layers. fanIn is typically rows (the input
// dimension of the layer the matrix parameterises).
func NewHe(rows, cols, fanIn int, rng *rand.Rand) *Matrix {
	if fanIn <= 0 {
		panic("mat: NewHe requires positive fanIn")
	}
	return NewRandn(rows, cols, math.Sqrt(2.0/float64(fanIn)), rng)
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if uint(i) >= uint(m.Rows) {
		m.rowOutOfRange(i)
	}
	return m.Data[i*m.Cols:][:m.Cols]
}

// rowOutOfRange panics for Row. It is kept out of line so that Row, with
// no formatting in its body, stays within the inliner's budget.
//
//go:noinline
func (m *Matrix) rowOutOfRange(i int) {
	panic(fmt.Sprintf("mat: row %d out of range for %dx%d", i, m.Rows, m.Cols))
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewFromSlice(m.Rows, m.Cols, m.Data)
}

// CopyFrom copies src into m. The dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every entry of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every entry of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every entry of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled adds s*other to m in place. Dimensions must match.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: AddScaled dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// Add adds other to m in place. Dimensions must match.
func (m *Matrix) Add(other *Matrix) { m.AddScaled(other, 1) }

// MulVecTo computes dst = m * x, where x has length m.Cols and dst has
// length m.Rows. dst must not alias x.
//
// Rows are taken four at a time, so each loaded x[j] feeds four
// independent accumulator chains. Every output is still its own plain
// ascending-order dot product, so results are bit-identical to a one-row
// loop and to the batched kernels (mulPackedTransRows).
func (m *Matrix) MulVecTo(dst, x []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec input length %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec output length %d != rows %d", len(dst), m.Rows))
	}
	n := m.Cols
	i := 0
	for ; i+3 < m.Rows; i += 4 {
		// Reslicing every row to an explicit length n lets the compiler
		// drop the bounds checks in the inner loop.
		r0 := m.Data[i*n:][:n]
		r1 := m.Data[(i+1)*n:][:n]
		r2 := m.Data[(i+2)*n:][:n]
		r3 := m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*n:][:n]
		var sum float64
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] = sum
	}
}

// MulVec computes and returns m * x as a fresh slice.
func (m *Matrix) MulVec(x []float64) []float64 {
	dst := make([]float64, m.Rows)
	m.MulVecTo(dst, x)
	return dst
}

// MulVecTransTo computes dst = mᵀ * x, where x has length m.Rows and dst has
// length m.Cols. dst must not alias x.
func (m *Matrix) MulVecTransTo(dst, x []float64) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecTrans input length %d != rows %d", len(x), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MulVecTrans output length %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// AddOuterScaled adds s * (x ⊗ y) to m in place, where x has length m.Rows
// and y has length m.Cols. This is the rank-1 update used by backprop to
// accumulate weight gradients.
func (m *Matrix) AddOuterScaled(x, y []float64, s float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("mat: AddOuterScaled lengths (%d,%d) != %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		f := s * xi
		for j, yj := range y {
			row[j] += f * yj
		}
	}
}

// Mul returns the matrix product m * other as a new matrix.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			krow := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j, kv := range krow {
				orow[j] += mv * kv
			}
		}
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Equal reports whether m and other have identical dimensions and entries
// within the given absolute tolerance.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	b.Grow(16 + 8*len(m.Data))
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}
