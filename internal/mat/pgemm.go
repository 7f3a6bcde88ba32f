package mat

import (
	"sync"

	"miras/internal/parallel"
)

// Parallel dispatch for the GEMM-shaped kernels. Large products are
// decomposed into destination row tiles and fanned across
// parallel.Kernel's persistent pool; small products (and all products when
// only one worker is available) run the original untiled serial loop,
// which streams the right operand exactly once.
//
// Determinism: tiles own disjoint destination rows, and every output
// entry is computed by exactly the arithmetic the serial kernel uses —
// one ascending-order accumulation chain whose shape does not depend on
// the tiling. Results are therefore bit-identical to serial execution for
// any GOMAXPROCS / SetMaxWorkers setting, even though the tile count is
// sized from the worker count for cache economy (each extra tile re-reads
// the shared operand once more, so tiles ≈ 2·workers keeps per-worker
// traffic near serial levels while leaving stealing slack). pgemm_test.go
// pins bit-identity across worker counts.

// minParallelFlops gates parallel dispatch on problem size (counted as
// 2·m·n·k flops). It is the measured crossover, not an estimate: at m = 64
// on two workers the serial lane kernel runs a 2²¹-flop product (64·128·128)
// in ≈ 130 µs, and the pooled launch only ties it on wall time for ≈ 20 %
// more CPU, while from 2²² up the pool wins the product ≈ 1.2× wall (1.5×
// at 2²³). DESIGN.md §4g has the table; BenchmarkMulTransTo and
// BenchmarkAddMulATBScaled reproduce it. A var only so those benchmarks can
// lower it to time the pool at every shape.
var minParallelFlops = 1 << 22

// rowTileSpan returns the per-tile row count for fanning m destination
// rows across w workers: ~2 tiles per worker, rounded up to a multiple of
// 4 so the 4-row micro-kernel never hands rows to the scalar edge loop
// except at the final short tile.
func rowTileSpan(m, w int) int {
	span := (m + 2*w - 1) / (2 * w)
	return max((span+laneRows-1)&^(laneRows-1), laneRows)
}

// gemmTask is a reusable launch descriptor for dst = a · B (+ epilogue).
type gemmTask struct {
	dst, a *Matrix
	pb     packedB
	ep     Epilogue
	span   int
}

func (t *gemmTask) RunTile(tile int) {
	r0 := tile * t.span
	r1 := r0 + t.span
	if r1 > t.a.Rows {
		r1 = t.a.Rows
	}
	gemmRows(t.dst, t.a, &t.pb, r0, r1)
	applyEpilogueRows(t.ep, t.dst, r0, r1)
}

var gemmTasks = sync.Pool{New: func() any { return new(gemmTask) }}

// gemm computes dst = a · B for B laid out as pb, then applies ep row-wise,
// tiling over dst rows when the product is large enough to pay for the
// fan-out and more than one worker is available. A narrow product (see
// narrowFor) runs serially through mulNarrow.
func gemm(dst, a *Matrix, pb packedB, ep Epilogue) {
	m, k, n := a.Rows, a.Cols, pb.n
	if pb.lanes == 0 && narrowFor(m, k, n) {
		mulNarrow(dst, a, pb.bt, ep)
		return
	}
	w := parallel.MaxWorkers()
	if w <= 1 || m < 4 || 2*m*n*k < minParallelFlops {
		gemmRows(dst, a, &pb, 0, m)
		applyEpilogueRows(ep, dst, 0, m)
		return
	}
	t := gemmTasks.Get().(*gemmTask)
	t.dst, t.a, t.pb, t.ep = dst, a, pb, ep
	t.span = rowTileSpan(m, w)
	parallel.Kernel((m+t.span-1)/t.span, t)
	*t = gemmTask{}
	gemmTasks.Put(t)
}

// rankTask is a reusable launch descriptor for dst += s · aᵀ · b.
type rankTask struct {
	dst, a, b *Matrix
	s         float64
	rp        rankPacked
	span      int
}

func (t *rankTask) RunTile(tile int) {
	i0 := tile * t.span
	i1 := i0 + t.span
	if i1 > t.dst.Rows {
		i1 = t.dst.Rows
	}
	rankRows(t.dst, t.a, t.b, t.s, &t.rp, i0, i1)
}

var rankTasks = sync.Pool{New: func() any { return new(rankTask) }}

// rankUpdate accumulates dst += s · aᵀ · b, tiling over dst rows when the
// update is large enough and more than one worker is available. Each dst
// row is owned by one tile and folds the minibatch in ascending sample
// order, so accumulation is bit-identical to the serial kernel for any
// worker count. What the lane tile needs packed is packed once, before
// the fan-out, and every tile reads the one packing.
func rankUpdate(dst, a, b *Matrix, s float64) {
	m, n := a.Cols, b.Cols
	rp, sp := packRank(a, b, s)
	w := parallel.MaxWorkers()
	if w <= 1 || m < 4 || 2*a.Rows*m*n < minParallelFlops {
		rankRows(dst, a, b, s, &rp, 0, m)
	} else {
		t := rankTasks.Get().(*rankTask)
		t.dst, t.a, t.b, t.s, t.rp = dst, a, b, s, rp
		t.span = rowTileSpan(m, w)
		parallel.Kernel((m+t.span-1)/t.span, t)
		*t = rankTask{}
		rankTasks.Put(t)
	}
	if sp != nil {
		putScratch(sp)
	}
}
