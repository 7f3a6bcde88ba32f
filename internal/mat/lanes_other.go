//go:build !amd64 || purego

package mat

// haveAVX2 is false off amd64 and under the purego tag: the pure-Go
// kernels run everywhere, and the lane kernels below are never called.
const haveAVX2 = false

// haveAVX512 is false for the same reasons: no ZMM kernel runs.
const haveAVX512 = false

// haveTanhLanes is false for the same reasons: TanhTo runs math.Tanh.
const haveTanhLanes = false

func gemm4x8(k int, a *float64, lda int, b *float64, ldb, ldp, npanels int, dst *float64, ldd int) {
	panic("mat: lane kernels need amd64")
}

func gemm4x16(k int, a *float64, lda int, b *float64, ldb, ldp, npairs int, dst *float64, ldd int) {
	panic("mat: lane kernels need amd64")
}

func transpose8(nblocks int, panel, bt *float64, ldb int) {
	panic("mat: lane kernels need amd64")
}

func mulVecPanels(k int, panels *float64, npanels int, x *float64, dst *float64) {
	panic("mat: lane kernels need amd64")
}

func rank4x8(k int, f *float64, ldf int, atail *float64, b *float64, ldb, npanels int, dst *float64, ldd int) {
	panic("mat: lane kernels need amd64")
}

func rank4x16(k int, f *float64, ldf int, atail *float64, b *float64, ldb, npairs int, dst *float64, ldd int) {
	panic("mat: lane kernels need amd64")
}

func reluLanes(n int, out, pre, b *float64) {
	panic("mat: lane kernels need amd64")
}

func reluGradLanes(n int, dPre, out, dOut, dB *float64) {
	panic("mat: lane kernels need amd64")
}

func adamLanes(n int, w, m, v, grad *float64, c *[8]float64) {
	panic("mat: lane kernels need amd64")
}

func softLanes(n int, w, src *float64, keep, tau float64) {
	panic("mat: lane kernels need amd64")
}

func tanhLanes(n int, out, pre, b *float64) {
	panic("mat: lane kernels need amd64")
}

func tanhLanes512(n int, out, pre, b *float64) {
	panic("mat: lane kernels need amd64")
}

func tanhGradLanes(n int, dPre, out, dOut, dB *float64) {
	panic("mat: lane kernels need amd64")
}

func tanhGradLanes512(n int, dPre, out, dOut, dB *float64) {
	panic("mat: lane kernels need amd64")
}
