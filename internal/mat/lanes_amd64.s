//go:build amd64 && !purego

#include "textflag.h"

// AVX2 lane kernels. Every YMM lane holds a different output entry, and
// each step is a separate VMULPD then VADDPD (no FMA), so every entry is
// rounded exactly as the scalar Go loops round it: one ascending chain
// per entry, starting from +0 (VXORPD) in the product.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x8(k int, a *float64, lda int, panels *float64, npanels int, dst *float64, ldd int)
//
// For each of npanels consecutive k×8 panels (p-major), writes the 4×8
// tile dst[r][c] = Σ_p a[r][p]·panel[p][c] for r < 4, accumulated in
// ascending p, then moves dst 8 columns right. lda and ldd are row
// strides in elements; npanels must be at least 1.
TEXT ·gemm4x8(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8
	MOVQ panels+24(FP), DI
	MOVQ npanels+32(FP), R9
	MOVQ dst+40(FP), DX
	MOVQ ldd+48(FP), R10
	SHLQ $3, R10
	LEAQ (SI)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13

panel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	MOVQ CX, R8
	TESTQ R8, R8
	JZ store

step:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y10
	VADDPD Y11, Y0, Y0
	VADDPD Y10, Y1, Y1

	VBROADCASTSD (R11)(AX*1), Y12
	VMULPD Y8, Y12, Y13
	VMULPD Y9, Y12, Y12
	VADDPD Y13, Y2, Y2
	VADDPD Y12, Y3, Y3

	VBROADCASTSD (R12)(AX*1), Y14
	VMULPD Y8, Y14, Y15
	VMULPD Y9, Y14, Y14
	VADDPD Y15, Y4, Y4
	VADDPD Y14, Y5, Y5

	VBROADCASTSD (R13)(AX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y10
	VADDPD Y11, Y6, Y6
	VADDPD Y10, Y7, Y7

	ADDQ $64, DI
	ADDQ $8, AX
	DECQ R8
	JNZ step

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R10*1)
	VMOVUPD Y3, 32(DX)(R10*1)
	LEAQ (DX)(R10*2), BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R10*1)
	VMOVUPD Y7, 32(BX)(R10*1)
	ADDQ $64, DX
	DECQ R9
	JNZ panel
	VZEROUPPER
	RET

// func axpy2(n int, drow, b0, b1 *float64, f0, f1 float64)
//
// drow[j] = (drow[j] + f0·b0[j]) + f1·b1[j] for j < n: four entries per
// YMM step, then one per scalar step.
TEXT ·axpy2(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ drow+8(FP), DI
	MOVQ b0+16(FP), SI
	MOVQ b1+24(FP), DX
	VBROADCASTSD f0+32(FP), Y0
	VBROADCASTSD f1+40(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

lanes:
	VMULPD (SI)(AX*8), Y0, Y2
	VMULPD (DX)(AX*8), Y1, Y3
	VADDPD (DI)(AX*8), Y2, Y2
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	DECQ BX
	JNZ lanes

tail:
	CMPQ AX, CX
	JGE done
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (DX)(AX*8), X1, X3
	VADDSD (DI)(AX*8), X2, X2
	VADDSD X3, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP tail

done:
	VZEROUPPER
	RET
