package mat

import "fmt"

// The AVX2 lane path under the training GEMM, the rank-k update, ReLU and
// the serving decide's mat-vec (VecPanels). SIMD lanes here never split a dot
// product: each lane holds a different output entry, and every step is a
// separate multiply then add, so each entry is still the one ascending
// chain 0 + a₀b₀ + a₁b₁ + … the pure-Go kernels compute, rounded the same
// way at every step. Results are bit-identical to the pure-Go kernels
// (FuzzGemmLanes, TestLaneKernelsMatchGeneric, FuzzMulVecTo), which remain
// the fallback on every other platform, under the purego build tag, and on
// CPUs without AVX2. On CPUs with AVX-512F the product and rank-k tiles
// take panels two at a time into ZMM registers (gemm4x16, rank4x16) and
// tanh runs eight lanes (tanhLanes512); each lane still holds one entry
// and runs the same op sequence, so all three kernel sets agree bit for bit.

// useAVX2 selects the lane kernels. It is chosen once at start-up from
// CPUID; tests flip it to referee the lane path against the pure-Go one.
var useAVX2 = haveAVX2

// useAVX512 selects the ZMM kernels: the 4×16 tiles, which run only while
// useAVX2 is on, and the eight-lane tanh, only while useTanhLanes is. It
// too is chosen once from CPUID, and tests flip it to referee the ZMM
// kernels against the YMM and pure-Go ones.
var useAVX512 = haveAVX512

// panelWidth is the column count of one packed panel: two YMM registers,
// or one ZMM register, of float64. The YMM tile (4×8) takes one panel per
// step, the ZMM tile (4×16) two.
const panelWidth = 8

// laneRows is the row count of the lane kernel's register tile.
const laneRows = 4

// lanesFor reports whether an m-row product with shared dimension k runs
// on the lane kernel: it needs a full register tile of rows and a
// non-empty dot product.
func lanesFor(m, k int) bool {
	return useAVX2 && m >= laneRows && k > 0
}

// packPanelRows writes 8 transposed columns — rows of length k in bt —
// into panel as k×8, p-major: panel[p*8+q] = bt[q*k+p]. With useAVX512
// the first k&^7 p's go through the 8×8 ZMM transpose, the rest here.
func packPanelRows(panel, bt []float64, k int) {
	p0 := 0
	if useAVX512 && k >= panelWidth {
		p0 = k &^ (panelWidth - 1)
		transpose8(p0/panelWidth, &panel[0], &bt[0], k)
	}
	b0, b1, b2, b3 := bt[:k], bt[k:][:k], bt[2*k:][:k], bt[3*k:][:k]
	b4, b5, b6, b7 := bt[4*k:][:k], bt[5*k:][:k], bt[6*k:][:k], bt[7*k:][:k]
	for p := p0; p < k; p++ {
		c := panel[p*panelWidth:][:panelWidth]
		c[0], c[1], c[2], c[3] = b0[p], b1[p], b2[p], b3[p]
		c[4], c[5], c[6], c[7] = b4[p], b5[p], b6[p], b7[p]
	}
}

// packPanelTail writes the fewer than 8 rows of length k in bt into panel
// as packPanelRows does, padding the missing rows with zero columns.
func packPanelTail(panel, bt []float64, k int) {
	rem := len(bt) / k
	for p := 0; p < k; p++ {
		c := panel[p*panelWidth:][:panelWidth]
		for q := range c {
			c[q] = 0
			if q < rem {
				c[q] = bt[q*k+p]
			}
		}
	}
}

// packColsTail writes columns [c, c+rem) of b, rem < 8, into panel as one
// k×8 panel, p-major, padded with zero columns: the short last panel of an
// operand the lane tiles otherwise read in place.
func packColsTail(panel []float64, b *Matrix, c, rem int) {
	for p := 0; p < b.Rows; p++ {
		row := panel[p*panelWidth:][:panelWidth]
		clear(row[copy(row, b.Data[p*b.Cols+c:][:rem]):])
	}
}

// gemmRows computes rows [r0, r1) of dst = a · B for B laid out as pb: on
// the lane kernel when pb has panels, on the pure-Go one otherwise.
func gemmRows(dst, a *Matrix, pb *packedB, r0, r1 int) {
	if pb.lanes > 0 {
		mulLanesRows(dst, a, pb, r0, r1)
		return
	}
	mulPackedTransRows(dst, a, pb.bt, pb.n, r0, r1)
}

// narrowFor reports whether an m×n product with shared dimension k runs
// transposed on the lane kernels (mulNarrow): fewer than 8 output columns,
// too few for one panel, and at least one panel's worth of rows. Packing
// a's rows costs about as much as two pure-Go output columns unless the
// ZMM transpose packs them, so one or two columns take the lanes only
// with useAVX512 (BenchmarkMulTransToNarrow).
func narrowFor(m, k, n int) bool {
	return useAVX2 && n > 0 && n < panelWidth && (n >= 3 || useAVX512) && m >= panelWidth && k > 0
}

// mulNarrow computes dst = a · btᵀ for bt holding dst's n < 8 columns as
// rows of length k, through the transposed product dstᵀ = bt · aᵀ: a's
// first m&^7 rows are packed as panels, as MulTransTo packs its right
// operand, and each row of dstᵀ is one output column. Groups of four run
// the lane tiles and the rest mulVecPanels, into scratch that is then
// transposed into dst; a single column is written straight into dst. The
// rows of a past the last whole panel run the pure-Go kernel, and ep runs
// on every row at the end. Each entry is the same ascending chain 0 +
// a₀b₀ + a₁b₁ + … as the pure-Go kernel's, with every product's operands
// swapped, so the result is bit-identical.
func mulNarrow(dst, a *Matrix, bt []float64, ep Epilogue) {
	m, k, n := a.Rows, a.Cols, dst.Cols
	lanes := m &^ (panelWidth - 1)
	sp := getScratch(lanes * (k + n))
	panels := (*sp)[:lanes*k]
	for g := 0; g < lanes; g += panelWidth {
		packPanelRows(panels[g*k:][:panelWidth*k], a.Data[g*k:][:panelWidth*k], k)
	}
	t := &Matrix{Rows: n, Cols: lanes, Data: (*sp)[lanes*k:][:n*lanes]}
	if n == 1 {
		t.Data = dst.Data[:lanes]
	}
	tiled := n &^ (laneRows - 1)
	if tiled > 0 {
		pb := packedB{panels: panels, ldb: panelWidth, ldp: panelWidth * k, lanes: lanes, n: lanes}
		mulLanesRows(t, &Matrix{Rows: n, Cols: k, Data: bt[:n*k]}, &pb, 0, tiled)
	}
	for j := tiled; j < n; j++ {
		mulVecPanels(k, &panels[0], lanes/panelWidth, &bt[j*k], &t.Data[j*lanes])
	}
	if n > 1 {
		for i := 0; i < lanes; i++ {
			drow := dst.Data[i*n:][:n]
			for j := range drow {
				drow[j] = t.Data[j*lanes+i]
			}
		}
	}
	putScratch(sp)
	mulPackedTransRows(dst, a, bt, n, lanes, m)
	applyEpilogueRows(ep, dst, 0, m)
}

// zmmPairs returns how many pairs of a run of npanels panels go through a
// ZMM tile (4×16): all of them when useAVX512 is set, none otherwise. The
// panels left over — an odd last one, or all of them — go through the YMM
// tile (4×8).
func zmmPairs(npanels int) int {
	if useAVX512 {
		return npanels / 2
	}
	return 0
}

// mulLanesRows computes rows [r0, r1) of dst = a·B for B laid out as pb.
// The whole panels are taken in blocks of gemmBlock columns, kept
// cache-resident while the tile's rows stream past them; each group of
// four rows runs the lane tiles across the block, and leftover rows run
// rowPanel, with the same per-entry chain. The padded last panel, if any,
// runs the same kernels into a local 4×8 tile whose valid columns are then
// copied into dst.
func mulLanesRows(dst, a *Matrix, pb *packedB, r0, r1 int) {
	k, ld := a.Cols, dst.Cols
	for j0 := 0; j0 < pb.lanes; j0 += gemmBlock {
		j1 := min(j0+gemmBlock, pb.lanes)
		blk := pb.panels[j0/panelWidth*pb.ldp:]
		np := (j1 - j0) / panelWidth
		pairs := zmmPairs(np)
		c := 2 * pairs * panelWidth
		i := r0
		for ; i+laneRows <= r1; i += laneRows {
			ai := a.Data[i*k : (i+laneRows)*k]
			di := dst.Data[i*ld+j0 : (i+laneRows-1)*ld+j1]
			if pairs > 0 {
				gemm4x16(k, &ai[0], k, &blk[0], pb.ldb, pb.ldp, pairs, &di[0], ld)
			}
			if c < j1-j0 {
				gemm4x8(k, &ai[0], k, &blk[c/panelWidth*pb.ldp], pb.ldb, pb.ldp, np-2*pairs, &di[c], ld)
			}
		}
		for ; i < r1; i++ {
			arow := a.Data[i*k:][:k]
			drow := dst.Data[i*ld:][:ld]
			for j := j0; j < j1; j += panelWidth {
				rowPanel(drow[j:][:panelWidth], arow, pb.panels[j/panelWidth*pb.ldp:], pb.ldb)
			}
		}
	}
	if rem := pb.n - pb.lanes; rem > 0 {
		var tile [laneRows * panelWidth]float64
		i := r0
		for ; i+laneRows <= r1; i += laneRows {
			gemm4x8(k, &a.Data[i*k], k, &pb.last[0], panelWidth, 0, 1, &tile[0], panelWidth)
			for r := 0; r < laneRows; r++ {
				copy(dst.Data[(i+r)*ld+pb.lanes:][:rem], tile[r*panelWidth:])
			}
		}
		for ; i < r1; i++ {
			rowPanel(tile[:panelWidth], a.Data[i*k:][:k], pb.last, panelWidth)
			copy(dst.Data[i*ld+pb.lanes:][:rem], tile[:rem])
		}
	}
}

// rowPanel writes d[q] = Σ_p arow[p]·b[p*ldb+q] for q < 8, accumulated in
// ascending p: one row of a lane tile, for the rows left over.
func rowPanel(d, arow, b []float64, ldb int) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for p, av := range arow {
		c := b[p*ldb:][:panelWidth]
		s0 += av * c[0]
		s1 += av * c[1]
		s2 += av * c[2]
		s3 += av * c[3]
		s4 += av * c[4]
		s5 += av * c[5]
		s6 += av * c[6]
		s7 += av * c[7]
	}
	d = d[:panelWidth]
	d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	d[4], d[5], d[6], d[7] = s4, s5, s6, s7
}

// rankPacked is what the lane tile of a rank-k update dst += s·aᵀ·b (a
// p×m, b p×n) reads besides b itself, which it reads in place: f = s·a in
// a's p×m layout (a itself when s is 1, which leaves every product
// unchanged), and, when 8 does not divide n, b's last n mod 8 columns as
// one p×8 panel padded with zero columns, last. f is nil when the update
// runs on the pure-Go kernel alone.
type rankPacked struct {
	f, last []float64
}

// packRank packs what the lane tile needs packed into shared scratch,
// which the caller hands back with putScratch once the update is done (sp
// is nil when nothing was packed).
func packRank(a, b *Matrix, s float64) (rp rankPacked, sp *[]float64) {
	p, m, n := a.Rows, a.Cols, b.Cols
	if !lanesFor(m, p) || n == 0 {
		return rankPacked{}, nil
	}
	lanes := n &^ (panelWidth - 1)
	rp.f = a.Data
	size := 0
	if lanes < n {
		size += p * panelWidth
	}
	if s != 1 {
		size += p * m
	}
	if size == 0 {
		return rp, nil
	}
	sp = getScratch(size)
	buf := *sp
	if lanes < n {
		rp.last, buf = buf[:p*panelWidth], buf[p*panelWidth:]
		packColsTail(rp.last, b, lanes, n-lanes)
	}
	if s != 1 {
		rp.f = buf[:p*m]
		for i, v := range a.Data {
			rp.f[i] = s * v
		}
	}
	return rp, sp
}

// rankRows accumulates rows [i0, i1) of dst += s·aᵀ·b with rp packed. Each
// group of four rows runs the lane tiles over b's whole panels in place,
// block by block and pair by pair as mulLanesRows does, and over the
// padded last panel through a 4×8 copy of its tile; the rows left over run
// the pure-Go kernel.
func rankRows(dst, a, b *Matrix, s float64, rp *rankPacked, i0, i1 int) {
	g1 := i0
	if rp.f != nil {
		g1 = i0 + (i1-i0)&^(laneRows-1)
		p, m, ld := a.Rows, a.Cols, dst.Cols
		lanes := ld &^ (panelWidth - 1)
		tail := a.Data[(p-1)*m:]
		for j0 := 0; j0 < lanes; j0 += gemmBlock {
			j1 := min(j0+gemmBlock, lanes)
			blk := b.Data[j0:]
			np := (j1 - j0) / panelWidth
			pairs := zmmPairs(np)
			c := 2 * pairs * panelWidth
			for i := i0; i < g1; i += laneRows {
				di := dst.Data[i*ld+j0 : (i+laneRows-1)*ld+j1]
				if pairs > 0 {
					rank4x16(p, &rp.f[i], m, &tail[i], &blk[0], ld, pairs, &di[0], ld)
				}
				if c < j1-j0 {
					rank4x8(p, &rp.f[i], m, &tail[i], &blk[c], ld, np-2*pairs, &di[c], ld)
				}
			}
		}
		if rem := ld - lanes; rem > 0 {
			var tile [laneRows * panelWidth]float64
			for i := i0; i < g1; i += laneRows {
				for r := 0; r < laneRows; r++ {
					copy(tile[r*panelWidth:], dst.Data[(i+r)*ld+lanes:][:rem])
				}
				rank4x8(p, &rp.f[i], m, &tail[i], &rp.last[0], panelWidth, 1, &tile[0], panelWidth)
				for r := 0; r < laneRows; r++ {
					copy(dst.Data[(i+r)*ld+lanes:][:rem], tile[r*panelWidth:])
				}
			}
		}
	}
	addMulATBScaledRows(dst, a, b, s, g1, i1)
}

// VecPanels is a matrix packed for the lane mat-vec kernel: its rows in
// groups of 8, group g stored as a k×8 panel, p-major — panel[p*8+q] =
// m[8g+q][p], packPanelRows' layout — and the last group padded with zero
// rows. A kernel step broadcasts one x[p] against a panel row, so each
// lane keeps one output's chain 0 + w₀x₀ + w₁x₁ + … in ascending p, and
// VecPanels.MulVecTo equals Matrix.MulVecTo bit for bit. The panels are a
// copy: they are packed once for weights that no longer change.
type VecPanels struct {
	rows, cols int
	data       []float64
}

// PackVecPanels packs m for VecPanels.MulVecTo, or returns nil when the
// lane kernels are off; Matrix.MulVecTo is the kernel then.
func PackVecPanels(m *Matrix) *VecPanels {
	if !useAVX2 {
		return nil
	}
	k, full := m.Cols, m.Rows/panelWidth
	p := &VecPanels{rows: m.Rows, cols: k, data: make([]float64, (m.Rows+panelWidth-1)/panelWidth*panelWidth*k)}
	for g := 0; g < full; g++ {
		packPanelRows(p.data[g*panelWidth*k:], m.Data[g*panelWidth*k:], k)
	}
	if full*panelWidth < m.Rows && k > 0 {
		packPanelTail(p.data[full*panelWidth*k:], m.Data[full*panelWidth*k:], k)
	}
	return p
}

// MulVecTo computes dst = m·x for the packed matrix m, where x has length
// m.Cols and dst has length m.Rows, bit-identical to Matrix.MulVecTo. dst
// must not alias x. The full panels go through the kernel four at a time
// and singly after; a padded last panel goes through a local 8-entry tile.
func (p *VecPanels) MulVecTo(dst, x []float64) {
	if len(x) != p.cols {
		panic(fmt.Sprintf("mat: MulVec input length %d != cols %d", len(x), p.cols))
	}
	if len(dst) != p.rows {
		panic(fmt.Sprintf("mat: MulVec output length %d != rows %d", len(dst), p.rows))
	}
	k := p.cols
	if k == 0 {
		clear(dst)
		return
	}
	full := p.rows / panelWidth
	if full > 0 {
		mulVecPanels(k, &p.data[0], full, &x[0], &dst[0])
	}
	if rem := p.rows - full*panelWidth; rem > 0 {
		var tile [panelWidth]float64
		mulVecPanels(k, &p.data[full*panelWidth*k], 1, &x[0], &tile[0])
		copy(dst[full*panelWidth:], tile[:rem])
	}
}
