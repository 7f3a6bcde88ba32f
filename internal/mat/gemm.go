package mat

import "fmt"

// This file contains the batched (matrix-matrix) kernels behind the
// minibatch training path. They are destination-passing and allocation-free
// in steady state: the AVX2 lane tiles (lanes.go) read MulTo's row-major
// right operand in place, 8 columns at a time, and pack only a short last
// panel; the pure-Go kernel reads it transposed into a scratch buffer
// (caller-owned via MulToBuf, or drawn from gemmScratch). MulTransTo's
// operand, already transposed, is read in place by the pure-Go kernel and
// packed as panels for the tiles. Large products are tiled
// over rows and fanned across the parallel kernel pool — see pgemm.go —
// without changing any per-entry arithmetic.
//
// Numerically, every kernel accumulates along the shared dimension in
// ascending order — the same order the per-sample kernels (MulVecTo,
// MulVecTransTo, AddOuterScaled) use — so batched results match a sequence
// of per-sample calls to within floating-point noise at the -0.0 edge
// cases, and typically bit-for-bit.

// gemmBlock is the column-block size for the right operand: one block of
// B's columns (Bᵀ rows, or eight lane panels) is kept hot in cache
// while every row of A streams past it.
const gemmBlock = 64

// Epilogue post-processes completed output rows inside a GEMM — the fused
// bias-add + activation hook. ApplyRow is called exactly once per output
// row, after the row's dot products are final, while the row is still
// cache-hot; rows may be processed concurrently from kernel workers, so
// ApplyRow must only touch row-local data (and read-only shared state).
type Epilogue interface {
	ApplyRow(i int, row []float64)
}

// gemmScratch keeps packing buffers between products. It is a bounded free
// list rather than a sync.Pool because the lane path packs a forward pass's
// weights on every MulTransTo: a pool drops buffers at GC (and, under the
// race detector, at random on Put), which would put an allocation back into
// every training step. The capacity bounds what is kept for good, not how
// many products may run at once.
var gemmScratch = make(chan *[]float64, 8)

// getScratch returns a buffer of length n from gemmScratch, or a new one;
// putScratch hands it back.
func getScratch(n int) *[]float64 {
	var sp *[]float64
	select {
	case sp = <-gemmScratch:
	default:
		sp = new([]float64)
	}
	growBuf(sp, n)
	return sp
}

func putScratch(sp *[]float64) {
	select {
	case gemmScratch <- sp:
	default:
	}
}

// growBuf resizes *buf to length n, reusing its backing array when large
// enough.
func growBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// MulTo computes dst = a · b, where a is m×k, b is k×n, and dst is m×n.
// dst must not alias a or b. The lane tiles read b in place; the pure-Go
// kernel reads it transposed into a scratch buffer, so every inner loop
// streams unit-stride memory.
func (dst *Matrix) MulTo(a, b *Matrix) {
	sp := getScratch(0)
	dst.mulPacked(a, b, sp, nil)
	putScratch(sp)
}

// MulToBuf is MulTo packing what b needs packed into the caller-owned
// buffer *buf (grown as needed) instead of shared scratch, so steady-state
// callers that hold a buffer per product shape stay allocation-free. The
// optional epilogue is fused into the kernel (nil for none).
func (dst *Matrix) MulToBuf(a, b *Matrix, buf *[]float64, ep Epilogue) {
	dst.mulPacked(a, b, buf, ep)
}

func (dst *Matrix) mulPacked(a, b *Matrix, buf *[]float64, ep Epilogue) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTo inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTo destination %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	gemm(dst, a, packCols(buf, b, 0, b.Cols, a.Rows), ep)
}

// MulColsToBuf computes dst = a · b[:, c0:c0+dst.Cols] — the product with
// a window of b's columns — packing what that window needs packed into
// *buf (grown as needed). Each entry is the same ascending dot product
// MulTo computes for that column of the full product, so the result equals
// the matching columns of MulTo's bit for bit at a fraction of the work
// when the window is narrow. dst must not alias a or b.
func (dst *Matrix) MulColsToBuf(a, b *Matrix, c0 int, buf *[]float64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulColsToBuf inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || c0 < 0 || c0+dst.Cols > b.Cols {
		panic(fmt.Sprintf("mat: MulColsToBuf destination %dx%d at column %d outside %dx%d", dst.Rows, dst.Cols, c0, a.Rows, b.Cols))
	}
	gemm(dst, a, packCols(buf, b, c0, dst.Cols, a.Rows), nil)
}

// packedB is a product's right operand B (k×n) as the row kernels read
// it. With lanes > 0 the lane tiles run every column: the whole 8-column
// panels of columns [0, lanes), entry (p, 8g+q) at panels[g*ldp+p*ldb+q]
// — a row-major B read in place (ldb its row stride, ldp 8) or packed k×8
// panels (ldb 8, ldp 8k) — and, when 8 does not divide n, columns
// [lanes, n) as one k×8 panel padded with zero columns, last. With lanes
// = 0, bt holds B transposed for the pure-Go kernel and mulNarrow, column
// j at bt[j*k:][:k].
type packedB struct {
	panels, last, bt []float64
	ldb, ldp         int
	lanes, n         int
}

// packCols lays out columns [c0, c0+n) of b for an m-row product: read in
// place by the lane tiles, with only a short last panel packed into *buf,
// when they run and n ≥ 8; otherwise transposed into *buf.
func packCols(buf *[]float64, b *Matrix, c0, n, m int) packedB {
	k := b.Rows
	if lanesFor(m, k) && n >= panelWidth {
		pb := packedB{panels: b.Data[c0:], ldb: b.Cols, ldp: panelWidth, lanes: n &^ (panelWidth - 1), n: n}
		if pb.lanes < n {
			pb.last = growBuf(buf, panelWidth*k)
			packColsTail(pb.last, b, c0+pb.lanes, n-pb.lanes)
		}
		return pb
	}
	bt := growBuf(buf, k*n)
	for i := 0; i < k; i++ {
		for j, v := range b.Data[i*b.Cols+c0:][:n] {
			bt[j*k+i] = v
		}
	}
	return packedB{bt: bt, n: n}
}

// MulTransTo computes dst = a · bᵀ, where a is m×k, b is n×k, and dst is
// m×n. dst must not alias a or b. b is already in the transposed layout the
// pure-Go kernel wants, so it packs nothing (the lane kernel repacks b's
// rows into panels in shared scratch); this is the forward-pass shape
// (inputs · weightsᵀ) and the reason layer weights are stored out×in.
func (dst *Matrix) MulTransTo(a, b *Matrix) {
	dst.MulTransEpilogueTo(a, b, nil)
}

// MulTransEpilogueTo is MulTransTo with an epilogue fused into the kernel:
// ep.ApplyRow runs on each output row right after its dot products
// complete (bias add + activation without a second pass over dst). A nil
// epilogue is a plain product.
func (dst *Matrix) MulTransEpilogueTo(a, b *Matrix, ep Epilogue) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransTo inner dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTransTo destination %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	k, n := b.Cols, b.Rows
	if !lanesFor(a.Rows, k) || n < panelWidth {
		gemm(dst, a, packedB{bt: b.Data, n: n}, ep)
		return
	}
	lanes := n &^ (panelWidth - 1)
	sp := getScratch((n + panelWidth - 1) &^ (panelWidth - 1) * k)
	pb := packedB{panels: *sp, ldb: panelWidth, ldp: panelWidth * k, lanes: lanes, n: n}
	for g := 0; g < lanes; g += panelWidth {
		packPanelRows(pb.panels[g*k:][:panelWidth*k], b.Data[g*k:][:panelWidth*k], k)
	}
	if lanes < n {
		pb.last = pb.panels[lanes*k:][:panelWidth*k]
		packPanelTail(pb.last, b.Data[lanes*k:n*k], k)
	}
	gemm(dst, a, pb, ep)
	putScratch(sp)
}

// mulPackedTransRows computes rows [r0, r1) and columns [0, n) of dst =
// a · btᵀ, where bt holds column j as the row bt[j*k:][:k] of length
// a.Cols (i.e. the right operand already transposed). Rows of bt are
// processed in blocks so a block stays cache-resident while the tile's
// rows of a stream through it; within a block a 2×4 register micro-kernel
// shares each loaded element across up to eight accumulator chains. Every
// output entry is one plain ascending-order dot product, so results are
// bit-identical to the per-sample kernels — and independent of how the row
// range is tiled.
func mulPackedTransRows(dst, a *Matrix, bt []float64, n, r0, r1 int) {
	k := a.Cols
	for j0 := 0; j0 < n; j0 += gemmBlock {
		j1 := j0 + gemmBlock
		if j1 > n {
			j1 = n
		}
		i := r0
		for ; i+1 < r1; i += 2 {
			// Reslicing every row to an explicit length k lets the
			// compiler prove p < len(...) and drop the bounds checks in
			// the micro-kernel.
			a0 := a.Data[i*k:][:k]
			a1 := a.Data[(i+1)*k:][:k]
			d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			d1 := dst.Data[(i+1)*dst.Cols : (i+2)*dst.Cols]
			j := j0
			for ; j+3 < j1; j += 4 {
				b0 := bt[j*k:][:k]
				b1 := bt[(j+1)*k:][:k]
				b2 := bt[(j+2)*k:][:k]
				b3 := bt[(j+3)*k:][:k]
				var s00, s01, s02, s03, s10, s11, s12, s13 float64
				for p := 0; p < k; p++ {
					av0, av1 := a0[p], a1[p]
					bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s02 += av0 * bv2
					s03 += av0 * bv3
					s10 += av1 * bv0
					s11 += av1 * bv1
					s12 += av1 * bv2
					s13 += av1 * bv3
				}
				d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
				d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
			}
			for ; j < j1; j++ {
				brow := bt[j*k:][:k]
				var s0, s1 float64
				for p := 0; p < k; p++ {
					s0 += a0[p] * brow[p]
					s1 += a1[p] * brow[p]
				}
				d0[j], d1[j] = s0, s1
			}
		}
		if i < r1 {
			arow := a.Data[i*k:][:k]
			drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j := j0; j < j1; j++ {
				brow := bt[j*k:][:k]
				var sum float64
				for p := 0; p < k; p++ {
					sum += arow[p] * brow[p]
				}
				drow[j] = sum
			}
		}
	}
}

// applyEpilogueRows runs ep over rows [r0, r1) of dst.
func applyEpilogueRows(ep Epilogue, dst *Matrix, r0, r1 int) {
	if ep == nil {
		return
	}
	for r := r0; r < r1; r++ {
		ep.ApplyRow(r, dst.Data[r*dst.Cols:][:dst.Cols])
	}
}

// AddMulATBScaled accumulates dst += s · aᵀ · b, where a is p×m, b is p×n,
// and dst is m×n. This is the batched rank-k update backprop uses to fold a
// whole minibatch of outer products into a weight gradient: with a = dPre
// (batch×out) and b = inputs (batch×in) it is exactly batch sequential
// AddOuterScaled calls, performed in the same sample order.
func (dst *Matrix) AddMulATBScaled(a, b *Matrix, s float64) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: AddMulATBScaled batch mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddMulATBScaled destination %dx%d != %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	rankUpdate(dst, a, b, s)
}

// addMulATBScaledRows accumulates rows [i0, i1) of dst += s · aᵀ · b. The
// adds are explicitly left-associated with samples folded two at a time,
// so each dst entry sees the samples in exactly the ascending order
// sequential AddOuterScaled calls would apply them — for any row tiling.
// The lane tile (rank4x8) computes the same expression, with the same
// skips, 4×8 entries at a time.
func addMulATBScaledRows(dst, a, b *Matrix, s float64, i0, i1 int) {
	m, n := a.Cols, b.Cols
	// Two samples per pass halves the read/write traffic on dst.
	r := 0
	for ; r+1 < a.Rows; r += 2 {
		a0 := a.Data[r*m:][:m]
		a1 := a.Data[(r+1)*m:][:m]
		b0 := b.Data[r*n:][:n]
		b1 := b.Data[(r+1)*n:][:n]
		for i := i0; i < i1; i++ {
			f0, f1 := s*a0[i], s*a1[i]
			if f0 == 0 && f1 == 0 {
				continue
			}
			drow := dst.Data[i*n:][:n]
			for j := 0; j < n; j++ {
				drow[j] = (drow[j] + f0*b0[j]) + f1*b1[j]
			}
		}
	}
	if r < a.Rows {
		arow := a.Data[r*m : (r+1)*m]
		brow := b.Data[r*n : (r+1)*n]
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			f := s * av
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += f * bv
			}
		}
	}
}

// AddRowVector adds v to every row of m in place (broadcast add, used for
// layer biases on a batched pre-activation).
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, bv := range v {
			row[j] += bv
		}
	}
}
