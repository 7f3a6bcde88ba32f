//go:build amd64 && !purego

package mat

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling both
// the XMM and YMM state components).
var haveAVX2 = detectAVX2()

// haveAVX512 reports whether the ZMM kernels can run: AVX2 as above, plus
// AVX-512F with the OS saving the opmask and ZMM registers (XCR0 bits
// 0xE6: XMM, YMM, opmask, the upper halves of ZMM0–15 and ZMM16–31).
var haveAVX512 = haveAVX2 && detectAVX512()

// haveTanhLanes reports whether tanhLanes can run: AVX2 plus FMA3.
var haveTanhLanes = haveAVX2 && detectFMA()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func detectAVX512() bool {
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

func detectFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func gemm4x8(k int, a *float64, lda int, b *float64, ldb, ldp, npanels int, dst *float64, ldd int)

//go:noescape
func gemm4x16(k int, a *float64, lda int, b *float64, ldb, ldp, npairs int, dst *float64, ldd int)

//go:noescape
func transpose8(nblocks int, panel, bt *float64, ldb int)

//go:noescape
func mulVecPanels(k int, panels *float64, npanels int, x *float64, dst *float64)

//go:noescape
func rank4x8(k int, f *float64, ldf int, atail *float64, b *float64, ldb, npanels int, dst *float64, ldd int)

//go:noescape
func rank4x16(k int, f *float64, ldf int, atail *float64, b *float64, ldb, npairs int, dst *float64, ldd int)

//go:noescape
func reluLanes(n int, out, pre, b *float64)

//go:noescape
func reluGradLanes(n int, dPre, out, dOut, dB *float64)

//go:noescape
func adamLanes(n int, w, m, v, grad *float64, c *[8]float64)

//go:noescape
func softLanes(n int, w, src *float64, keep, tau float64)

//go:noescape
func tanhLanes(n int, out, pre, b *float64)

//go:noescape
func tanhLanes512(n int, out, pre, b *float64)

//go:noescape
func tanhGradLanes(n int, dPre, out, dOut, dB *float64)

//go:noescape
func tanhGradLanes512(n int, dPre, out, dOut, dB *float64)
