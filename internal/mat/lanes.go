package mat

// The AVX2 lane path under the training GEMM and the rank-k update. SIMD
// lanes here never split a dot product: each lane holds a different output
// entry, and every step is a separate multiply then add, so each entry is
// still the one ascending chain 0 + a₀b₀ + a₁b₁ + … the pure-Go kernels
// compute, rounded the same way at every step. Results are bit-identical
// to the pure-Go kernels (FuzzGemmLanes, TestLaneKernelsMatchGeneric),
// which remain the fallback on every other platform, under the purego
// build tag, and on CPUs without AVX2.

// useAVX2 selects the lane kernels. It is chosen once at start-up from
// CPUID; tests flip it to referee the lane path against the pure-Go one.
var useAVX2 = haveAVX2

// panelWidth is the column count of one packed panel: the width of the
// lane kernel's 4×8 register tile (two YMM registers of float64).
const panelWidth = 8

// laneRows is the row count of the lane kernel's register tile.
const laneRows = 4

// lanesFor reports whether an m-row product with shared dimension k runs
// on the lane kernel: it needs a full register tile of rows and a
// non-empty dot product.
func lanesFor(m, k int) bool {
	return useAVX2 && m >= laneRows && k > 0
}

// packPanel writes columns [c, c+8) of b into panel as k×8, p-major:
// panel[p*8+q] = b[p][c+q].
func packPanel(panel []float64, b *Matrix, c int) {
	for p := 0; p < b.Rows; p++ {
		*(*[panelWidth]float64)(panel[p*panelWidth:]) = *(*[panelWidth]float64)(b.Data[p*b.Cols+c:])
	}
}

// packPanelRows writes 8 transposed columns — rows of length k in bt —
// into panel as k×8, p-major: panel[p*8+q] = bt[q*k+p].
func packPanelRows(panel, bt []float64, k int) {
	b0, b1, b2, b3 := bt[:k], bt[k:][:k], bt[2*k:][:k], bt[3*k:][:k]
	b4, b5, b6, b7 := bt[4*k:][:k], bt[5*k:][:k], bt[6*k:][:k], bt[7*k:][:k]
	for p := 0; p < k; p++ {
		c := panel[p*panelWidth:][:panelWidth]
		c[0], c[1], c[2], c[3] = b0[p], b1[p], b2[p], b3[p]
		c[4], c[5], c[6], c[7] = b4[p], b5[p], b6[p], b7[p]
	}
}

// gemmRows computes rows [r0, r1) of dst = a · B for B packed as pb:
// the panel columns on the lane kernel, the rest on the pure-Go one.
func gemmRows(dst, a *Matrix, pb *packedB, r0, r1 int) {
	if pb.lanes > 0 {
		mulLanesRows(dst, a, pb.panels, pb.lanes, r0, r1)
	}
	mulPackedTransRows(dst, a, pb.bt, pb.lanes, pb.n, r0, r1)
}

// mulLanesRows computes rows [r0, r1) and columns [0, lanes) of dst = a·B,
// B's columns packed as panels. Panels are taken in blocks of gemmBlock
// columns, kept cache-resident while the tile's rows stream past them;
// each group of four rows runs the 4×8 lane kernel across the block, and
// leftover rows run a scalar 1×8 loop with the same per-entry chain.
func mulLanesRows(dst, a *Matrix, panels []float64, lanes, r0, r1 int) {
	k, ld := a.Cols, dst.Cols
	for j0 := 0; j0 < lanes; j0 += gemmBlock {
		j1 := min(j0+gemmBlock, lanes)
		blk := panels[j0*k : j1*k]
		i := r0
		for ; i+laneRows <= r1; i += laneRows {
			ai := a.Data[i*k : (i+laneRows)*k]
			di := dst.Data[i*ld+j0 : (i+laneRows-1)*ld+j1]
			gemm4x8(k, &ai[0], k, &blk[0], (j1-j0)/panelWidth, &di[0], ld)
		}
		for ; i < r1; i++ {
			arow := a.Data[i*k:][:k]
			drow := dst.Data[i*ld:][:ld]
			for j := j0; j < j1; j += panelWidth {
				panel := panels[j*k:][:panelWidth*k]
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				for p, av := range arow {
					c := panel[p*panelWidth:][:panelWidth]
					s0 += av * c[0]
					s1 += av * c[1]
					s2 += av * c[2]
					s3 += av * c[3]
					s4 += av * c[4]
					s5 += av * c[5]
					s6 += av * c[6]
					s7 += av * c[7]
				}
				d := drow[j:][:panelWidth]
				d[0], d[1], d[2], d[3] = s0, s1, s2, s3
				d[4], d[5], d[6], d[7] = s4, s5, s6, s7
			}
		}
	}
}
