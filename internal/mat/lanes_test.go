package mat

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"miras/internal/parallel"
)

func requireAVX2(tb testing.TB) {
	tb.Helper()
	if !haveAVX2 {
		tb.Skip("lane kernels not available: no AVX2 on this CPU, or a non-amd64 or purego build")
	}
}

// laneSet is one of the three kernel sets the lane path can run: the ZMM
// tiles and tanh beside the AVX2 lanes, the AVX2 lanes alone, or pure Go.
type laneSet struct {
	name         string
	avx2, avx512 bool
}

var (
	zmmSet  = laneSet{"zmm", true, true}
	avx2Set = laneSet{"avx2", true, false}
	goSet   = laneSet{"go", false, false}
	// laneArms are the sets refereed against pure Go; each agreeing with
	// it bit for bit makes all three agree.
	laneArms = []laneSet{zmmSet, avx2Set}
)

// use runs fn with the kernels of s selected, restoring the start-up
// choice afterwards.
func (s laneSet) use(fn func()) {
	defer func(avx2, avx512 bool) { useAVX2, useAVX512 = avx2, avx512 }(useAVX2, useAVX512)
	useAVX2, useAVX512 = s.avx2, s.avx512
	fn()
}

// require skips tb, saying why, unless this CPU and build can run s.
func (s laneSet) require(tb testing.TB) {
	tb.Helper()
	if s.avx512 && !haveAVX512 {
		tb.Skip("ZMM kernels not available: no AVX-512F with opmask and ZMM state enabled on this CPU, or a non-amd64 or purego build")
	}
	if s.avx2 {
		requireAVX2(tb)
	}
}

// activeLaneSet names the kernel set chosen at start-up.
func activeLaneSet() laneSet {
	switch {
	case useAVX2 && useAVX512:
		return zmmSet
	case useAVX2:
		return avx2Set
	}
	return goSet
}

// TestMain reports in the verbose log which kernel set this CPU runs, so a
// CI log shows whether the ZMM arms were exercised or skipped.
func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Verbose() {
		fmt.Printf("mat: lane kernels %s (AVX2 %v, AVX-512F %v, lane tanh %v)\n",
			activeLaneSet().name, haveAVX2, haveAVX512, useTanhLanes)
	}
	os.Exit(m.Run())
}

// sameBits reports whether x and y are the same float64 bit pattern; any
// two NaNs count as equal, since a NaN's payload may come from either
// operand.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// laneKernelOps are the four entry points the lane path serves, each
// computing its product of a (m×k) and b (k×n) into a fresh matrix. The
// rank-k update folds the k samples aᵀ·b into a destination seeded from
// a and b, so accumulation onto existing entries is covered too.
var laneKernelOps = []struct {
	name string
	run  func(a, b *Matrix) *Matrix
}{
	{"MulTransTo", func(a, b *Matrix) *Matrix {
		dst := New(a.Rows, b.Cols)
		dst.MulTransTo(a, b.Transpose())
		return dst
	}},
	{"MulTo", func(a, b *Matrix) *Matrix {
		dst := New(a.Rows, b.Cols)
		dst.MulTo(a, b)
		return dst
	}},
	{"MulColsToBuf", func(a, b *Matrix) *Matrix {
		c0 := b.Cols / 3
		dst := New(a.Rows, b.Cols-c0)
		var buf []float64
		dst.MulColsToBuf(a, b, c0, &buf)
		return dst
	}},
	{"MulColsToBuf/c0=1", func(a, b *Matrix) *Matrix {
		c0 := min(1, b.Cols)
		dst := New(a.Rows, b.Cols-c0)
		var buf []float64
		dst.MulColsToBuf(a, b, c0, &buf)
		return dst
	}},
	{"AddMulATBScaled", func(a, b *Matrix) *Matrix {
		dst := New(a.Rows, b.Cols)
		for i := range dst.Data {
			dst.Data[i] = 0.25
			if len(b.Data) > 0 {
				dst.Data[i] = b.Data[i%len(b.Data)]
			}
		}
		dst.AddMulATBScaled(a.Transpose(), b, 0.75)
		return dst
	}},
}

// laneMismatch runs every lane-served kernel on a and b with the kernels of
// arm and with pure Go, and describes the first entry whose bits differ
// ("" if none).
func laneMismatch(arm laneSet, a, b *Matrix) string {
	for _, op := range laneKernelOps {
		var lanes, generic *Matrix
		arm.use(func() { lanes = op.run(a, b) })
		goSet.use(func() { generic = op.run(a, b) })
		if msg := entryMismatch(arm, lanes, generic); msg != "" {
			return fmt.Sprintf("%s, a %dx%d, b %dx%d: %s", op.name, a.Rows, a.Cols, b.Rows, b.Cols, msg)
		}
	}
	return ""
}

// entryMismatch describes the first entry whose bits differ between arm's
// and the pure-Go results ("" if none).
func entryMismatch(arm laneSet, lanes, generic *Matrix) string {
	for i, v := range lanes.Data {
		if w := generic.Data[i]; !sameBits(v, w) {
			return fmt.Sprintf("entry (%d,%d) %s %v (%#x) != pure Go %v (%#x)",
				i/lanes.Cols, i%lanes.Cols, arm.name, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
	return ""
}

// forEachArm runs fn as one subtest per arm, skipping the arms this CPU
// cannot run.
func forEachArm(t *testing.T, fn func(t *testing.T, arm laneSet)) {
	for _, arm := range laneArms {
		t.Run(arm.name, func(t *testing.T) {
			arm.require(t)
			fn(t, arm)
		})
	}
}

// forEachSet runs fn as one subtest per kernel set, pure Go included,
// skipping the sets this CPU cannot run: for kernels refereed against a
// plain loop rather than against the pure-Go kernels.
func forEachSet(t *testing.T, fn func(t *testing.T, set laneSet)) {
	for _, set := range []laneSet{zmmSet, avx2Set, goSet} {
		t.Run(set.name, func(t *testing.T) {
			set.require(t)
			fn(t, set)
		})
	}
}

// laneSpecials are the edge values the deterministic table mixes into
// normal entries: signed zeros, subnormals and 1e300-scale magnitudes,
// whose products underflow or overflow.
var laneSpecials = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 3e-310, -1e-315, 1e300, -1e300, 4e299}

func laneRandMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = laneSpecials[rng.Intn(len(laneSpecials))]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// laneResidueShapes covers every row residue mod 4 and column residue
// mod 8, an empty dot product (k = 0), and shapes below one tile.
func laneResidueShapes() [][3]int {
	var shapes [][3]int
	for r := 0; r < 4; r++ {
		for c := 0; c < 8; c++ {
			shapes = append(shapes, [3]int{8 + r, 5 + 3*c, 16 + c}, [3]int{r + 1, 7, c + 1})
		}
	}
	return append(shapes, [3]int{4, 0, 8}, [3]int{7, 0, 13}, [3]int{0, 3, 8}, [3]int{12, 1, 1}, [3]int{33, 40, 39})
}

// laneNarrowShapes are products with 1–7 output columns, which run
// transposed on the lane kernels from 8 rows up (mulNarrow): every row
// count from 4 to 17 — below one panel, one panel with every residue, two
// whole panels and past them — and 64, the training batch, against
// shared dimensions of 1, 5 and 64.
func laneNarrowShapes() [][3]int {
	var shapes [][3]int
	for _, m := range []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64} {
		for n := 1; n < 8; n++ {
			shapes = append(shapes, [3]int{m, []int{1, 5, 64}[(m+n)%3], n})
		}
	}
	return shapes
}

// laneTailShapes are products whose n ≥ 8 columns end in a short panel,
// n ∈ {9…15, 20, 68}, which the lane tiles run through a zero-padded last
// panel: MulTo and MulColsToBuf read b in place with a row stride wider
// than the panel, and MulColsToBuf from a nonzero first column. Rows run
// through every residue mod 4 and the training batch, against shared
// dimensions of 1, 5, 20 and 64.
func laneTailShapes() [][3]int {
	var shapes [][3]int
	for i, n := range []int{9, 10, 11, 12, 13, 14, 15, 20, 68} {
		for j, m := range []int{4, 5, 6, 7, 64} {
			shapes = append(shapes, [3]int{m, []int{1, 5, 20, 64}[(i+j)%4], n})
		}
	}
	return shapes
}

// TestLaneKernelsMatchGeneric referees the ZMM and AVX2 kernels against
// the pure-Go ones, bit for bit, on the residue shapes plus the training
// and paper widths, ragged multi-block shapes, odd panel counts (3, 5,
// and 17, whose last block holds one panel), where the ZMM tile hands the
// last panel to the YMM one, the narrow shapes of 1–7 output columns and
// the tail shapes; 64·256² is large enough to fan out over the pool. Both
// arms see the same inputs.
func TestLaneKernelsMatchGeneric(t *testing.T) {
	requireAVX2(t)
	forEachArm(t, func(t *testing.T, arm laneSet) {
		rng := rand.New(rand.NewSource(21))
		shapes := append(laneResidueShapes(), [3]int{64, 64, 64}, [3]int{64, 256, 256}, [3]int{67, 130, 129}, [3]int{129, 257, 33},
			[3]int{9, 11, 24}, [3]int{12, 70, 44}, [3]int{5, 20, 137})
		shapes = append(shapes, laneNarrowShapes()...)
		shapes = append(shapes, laneTailShapes()...)
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			if msg := laneMismatch(arm, laneRandMat(m, k, rng), laneRandMat(k, n, rng)); msg != "" {
				t.Fatal(msg)
			}
		}
		// The rank-k update's skips, made certain rather than rare: even
		// and odd sample counts down to one sample, every residue of rows
		// mod 4 and columns mod 8, odd whole-panel counts (1, 3, 5 and a
		// 17-panel width whose last block holds one panel, where the ZMM
		// tile hands a panel to the YMM one), and the scaled (s = 0.5,
		// where 5e-324 scales to 0) and unscaled copies.
		for _, s := range [][3]int{{64, 64, 64}, {65, 64, 68}, {7, 12, 4}, {33, 13, 21}, {1, 4, 8}, {2, 6, 3}, {9, 7, 15},
			{1, 9, 24}, {3, 5, 40}, {5, 7, 136}, {4, 12, 139}, {1, 4, 17}} {
			for _, scale := range []float64{1, 0.5} {
				if msg := rankSkipMismatch(arm, s[0], s[1], s[2], scale, rng); msg != "" {
					t.Fatal(msg)
				}
			}
		}
	})
}

// rankSkipMismatch runs dst += scale·aᵀ·b with the kernels of arm and with
// pure Go on ReLU-shaped inputs and describes the first entry whose bits
// differ ("" if none). Half of a's entries are ±0 and a few are 5e-324; row 0 of
// dst sees only zeros, rows 1 mod 3 see whole zero sample pairs, and even
// rows a zero odd last sample. dst starts at −0 with a few ±Inf, and one
// column of b is +Inf, so a skipped add that ran would show as +0 or NaN.
func rankSkipMismatch(arm laneSet, p, m, n int, scale float64, rng *rand.Rand) string {
	negZero := math.Copysign(0, -1)
	a := New(p, m)
	for r := 0; r < p; r++ {
		for i := 0; i < m; i++ {
			v := rng.NormFloat64()
			switch {
			case i == 0, i%3 == 1 && r/2%2 == 0, i%2 == 0 && r == p-1 && p%2 == 1:
				v = 0
			case rng.Intn(8) == 0:
				v = math.SmallestNonzeroFloat64
			case rng.Intn(2) == 0:
				v = 0
			}
			if v == 0 && rng.Intn(2) == 0 {
				v = negZero
			}
			a.Data[r*m+i] = v
		}
	}
	b := laneRandMat(p, n, rng)
	for r := 0; r < p; r++ {
		b.Data[r*n+n/2] = math.Inf(1)
	}
	seed := New(m, n)
	for i := range seed.Data {
		seed.Data[i] = negZero
		if rng.Intn(8) == 0 {
			seed.Data[i] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	run := func() *Matrix {
		dst := seed.Clone()
		dst.AddMulATBScaled(a, b, scale)
		return dst
	}
	var lanes, generic *Matrix
	arm.use(func() { lanes = run() })
	goSet.use(func() { generic = run() })
	msg := entryMismatch(arm, lanes, generic)
	for j := 0; j < n && msg == ""; j++ {
		if !sameBits(generic.Data[j], seed.Data[j]) {
			msg = fmt.Sprintf("all-zero row 0 moved at column %d", j)
		}
	}
	if msg != "" {
		return fmt.Sprintf("AddMulATBScaled skips, a %dx%d, b %dx%d, s %v: %s", p, m, p, n, scale, msg)
	}
	return ""
}

// FuzzGemmLanes is the differential target for the lane kernels: the
// shape (each of m, k, n in 0–68, so widths past two whole ZMM pairs with
// a short last panel occur), then entries of a and b as raw float64 bits
// — so signed zeros, subnormals, infinities and NaNs all occur — are
// decoded from the fuzz input, and every lane-served kernel must equal its
// pure-Go twin bit for bit (NaNs equal to any NaN), on the ZMM and on the
// AVX2 kernels, one subtest each; the seeds include the short-panel widths
// 9, 12, 15, 20 and 68.
func FuzzGemmLanes(f *testing.F) {
	requireAVX2(f)
	f.Add([]byte{4, 3, 8})
	f.Add([]byte{7, 0, 13})
	f.Add([]byte{9, 5, 17, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{40, 40, 40})
	f.Add([]byte{2, 1, 31, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{16, 9, 4, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{17, 40, 1})
	f.Add([]byte{13, 5, 7, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add([]byte{5, 7, 9})
	f.Add([]byte{6, 20, 12, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add([]byte{7, 3, 15})
	f.Add([]byte{9, 20, 20, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{5, 9, 68})
	f.Fuzz(func(t *testing.T, data []byte) {
		forEachArm(t, func(t *testing.T, arm laneSet) {
			a, b := decodeLaneCase(data)
			if msg := laneMismatch(arm, a, b); msg != "" {
				t.Fatalf("%s\ninput: %v", msg, data)
			}
		})
	})
}

// decodeLaneCase builds one case from fuzz bytes: three shape bytes, then
// eight-byte little-endian float64 bit patterns overwriting entries of a
// fixed-seed random a then b in order.
func decodeLaneCase(data []byte) (a, b *Matrix) {
	dim := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % 69
		data = data[1:]
		return v
	}
	m, k, n := dim(), dim(), dim()
	rng := rand.New(rand.NewSource(1))
	a, b = randMat(m, k, rng), randMat(k, n, rng)
	for _, vs := range [][]float64{a.Data, b.Data} {
		for i := range vs {
			if len(data) < 8 {
				return a, b
			}
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	return a, b
}

// BenchmarkMulTransTo times the forward-pass product at m = 64 from the
// benchmark's width (64³) through the paper's MSD and LIGO widths, in
// GFLOP/s, on each kernel set (zmm, avx2, go; a set this CPU lacks is
// skipped): serial, and pooled on two workers with the size gate lowered
// so every shape fans out. DESIGN.md §4g's crossover table, which places
// minParallelFlops, and its per-set tile rates come from this benchmark
// and the next.
func BenchmarkMulTransTo(b *testing.B) {
	gemmBench(b, func(dst, x, y *Matrix) { dst.MulTransTo(x, y) }, func(m, k, n int) (*Matrix, *Matrix, *Matrix) {
		rng := rand.New(rand.NewSource(1))
		return New(m, n), randMat(m, k, rng), randMat(n, k, rng)
	})
}

// BenchmarkAddMulATBScaled times the rank-k weight-gradient update — m
// samples folded into a k×n gradient — at the same shapes.
func BenchmarkAddMulATBScaled(b *testing.B) {
	gemmBench(b, func(dst, x, y *Matrix) { dst.AddMulATBScaled(x, y, 0.5) }, func(m, k, n int) (*Matrix, *Matrix, *Matrix) {
		rng := rand.New(rand.NewSource(1))
		return New(k, n), randMat(m, k, rng), randMat(m, n, rng)
	})
}

// BenchmarkMulTransToNarrow times the narrow forward products of the
// DDPG update at batch 64 and width 64 — the critic's 1-wide value output
// and the actor's 4-wide softmax layer — on each kernel set, in GFLOP/s.
func BenchmarkMulTransToNarrow(b *testing.B) {
	for _, n := range []int{1, 4} {
		for _, set := range []laneSet{zmmSet, avx2Set, goSet} {
			b.Run(fmt.Sprintf("n=%d/%s", n, set.name), func(b *testing.B) {
				set.require(b)
				rng := rand.New(rand.NewSource(1))
				dst, x, w := New(64, n), randMat(64, 64, rng), randMat(n, 64, rng)
				set.use(func() {
					for b.Loop() {
						dst.MulTransTo(x, w)
					}
				})
				b.ReportMetric(float64(2*64*64*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func gemmBench(b *testing.B, op func(dst, x, y *Matrix), setup func(m, k, n int) (*Matrix, *Matrix, *Matrix)) {
	defer func(gate int) {
		parallel.SetMaxWorkers(0)
		minParallelFlops = gate
	}(minParallelFlops)
	shapes := [][3]int{{64, 64, 64}, {64, 128, 64}, {64, 128, 128}, {64, 256, 128}, {64, 256, 256}, {64, 512, 512}}
	for _, s := range shapes {
		for _, set := range []laneSet{zmmSet, avx2Set, goSet} {
			for _, mode := range []struct {
				name    string
				workers int
			}{{"serial", 1}, {"pooled", 2}} {
				m, k, n := s[0], s[1], s[2]
				b.Run(fmt.Sprintf("%dx%dx%d/%s/%s", m, k, n, set.name, mode.name), func(b *testing.B) {
					set.require(b)
					parallel.SetMaxWorkers(mode.workers)
					minParallelFlops = 0
					dst, x, y := setup(m, k, n)
					set.use(func() {
						for b.Loop() {
							op(dst, x, y)
						}
					})
					b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
