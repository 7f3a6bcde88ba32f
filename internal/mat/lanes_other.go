//go:build !amd64 || purego

package mat

// haveAVX2 is false off amd64 and under the purego tag: the pure-Go
// kernels run everywhere, and the lane kernels below are never called.
const haveAVX2 = false

// haveTanhLanes is false for the same reasons: TanhTo runs math.Tanh.
const haveTanhLanes = false

func gemm4x8(k int, a *float64, lda int, panels *float64, npanels int, dst *float64, ldd int) {
	panic("mat: lane kernels need amd64")
}

func axpy2(n int, drow, b0, b1 *float64, f0, f1 float64) {
	panic("mat: lane kernels need amd64")
}

func tanhLanes(n int, out, pre *float64) {
	panic("mat: lane kernels need amd64")
}
