//go:build amd64 && !purego

#include "textflag.h"

// AVX2 lane kernels. Every YMM lane holds a different output entry, and
// each step is a separate, correctly rounded op — VMULPD then VADDPD, and
// for Adam VDIVPD, VSQRTPD and VSUBPD; no FMA — so every entry is rounded
// exactly as the scalar Go loops round it: one ascending chain per entry,
// starting from +0 (VXORPD) in the product and from dst in the rank-k
// update.

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

// func mulVecPanels(k int, panels *float64, npanels int, x *float64, dst *float64)
//
// For each of npanels consecutive k×8 panels (p-major), writes the eight
// entries dst[q] = Σ_p panel[p][q]·x[p], accumulated in ascending p, then
// moves dst 8 entries right. Panels go four per pass — 32 outputs in
// Y0–Y7 against one broadcast x[p] — and the rest one per pass. k must be
// at least 1.
TEXT ·mulVecPanels(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ panels+8(FP), DI
	MOVQ npanels+16(FP), R9
	MOVQ x+24(FP), SI
	MOVQ dst+32(FP), DX
	MOVQ CX, R10
	SHLQ $6, R10

vquad:
	CMPQ R9, $4
	JLT vsingle
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DI, BX
	LEAQ (DI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	XORQ AX, AX
	MOVQ CX, R8

vqstep:
	VBROADCASTSD (SI)(AX*1), Y8
	VMULPD (BX), Y8, Y9
	VMULPD 32(BX), Y8, Y10
	VMULPD (R11), Y8, Y11
	VMULPD 32(R11), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD (R12), Y8, Y13
	VMULPD 32(R12), Y8, Y14
	VMULPD (R13), Y8, Y15
	VMULPD 32(R13), Y8, Y9
	VADDPD Y13, Y4, Y4
	VADDPD Y14, Y5, Y5
	VADDPD Y15, Y6, Y6
	VADDPD Y9, Y7, Y7
	ADDQ $64, BX
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $8, AX
	DECQ R8
	JNZ vqstep
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	ADDQ $256, DX
	MOVQ R13, DI
	SUBQ $4, R9
	JMP vquad

vsingle:
	TESTQ R9, R9
	JZ vdone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, R8

vsstep:
	VBROADCASTSD (SI)(AX*1), Y8
	VMULPD (DI), Y8, Y9
	VMULPD 32(DI), Y8, Y10
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	ADDQ $64, DI
	ADDQ $8, AX
	DECQ R8
	JNZ vsstep
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ $64, DX
	DECQ R9
	JMP vsingle

vdone:
	VZEROUPPER
	RET

// ROW folds one sample into one tile row: acc0:acc1 += f·b, with f
// broadcast from off(R12) and the sample's eight b entries in Y8:Y9;
// t0 and t1 are scratch.
#define ROW(off, t0, t1, acc0, acc1) \
	VBROADCASTSD off(R12), t0; \
	VMULPD Y8, t0, t1; \
	VMULPD Y9, t0, t0; \
	VADDPD t1, acc0, acc0; \
	VADDPD t0, acc1, acc1

// func rank4x8(k int, f *float64, ldf int, atail *float64, panels *float64, npanels int, dst *float64, ldd int)
//
// For each of npanels consecutive k×8 panels of b (p-major), folds the k
// samples into the 4×8 tile of dst in ascending p: dst[r][c] += f[p][r]·
// panel[p][c], where f[p][r] sits at f[p*ldf+r]. The tile is loaded once,
// samples go two per pass, and the tile is stored once, then dst moves 8
// columns right. Row r skips a pass whose two f's are both 0 and, when k
// is odd, skips the last sample where atail[r] == 0 — the pure-Go kernel's
// rules. ldf and ldd are row strides in elements; k and npanels must be at
// least 1.
TEXT ·rank4x8(SB), NOSPLIT, $0-64
	MOVQ f+8(FP), SI
	MOVQ ldf+16(FP), R8
	SHLQ $3, R8
	MOVQ panels+32(FP), DI
	MOVQ npanels+40(FP), R9
	MOVQ dst+48(FP), DX
	MOVQ ldd+56(FP), R10
	SHLQ $3, R10
	VXORPD Y10, Y10, Y10

	// CX = 0 when no f of these rows is 0, nor any atail: then no row
	// can skip, and every pass takes the unmasked path.
	MOVQ k+0(FP), R11
	MOVQ SI, R12
	MOVQ atail+24(FP), BX
	VCMPPD $0, (BX), Y10, Y11

rscan:
	VCMPPD $0, (R12), Y10, Y12
	VORPD Y12, Y11, Y11
	ADDQ R8, R12
	DECQ R11
	JNZ rscan
	VMOVMSKPD Y11, CX

rpanel:
	LEAQ (DX)(R10*2), R13
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(R10*1), Y2
	VMOVUPD 32(DX)(R10*1), Y3
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD (R13)(R10*1), Y6
	VMOVUPD 32(R13)(R10*1), Y7
	MOVQ SI, R12
	MOVQ k+0(FP), R11
	SHRQ $1, R11
	JZ rtail

rpair:
	TESTL CX, CX
	JZ rdense
	// AX bit r: both f's of row r are 0 in this pass.
	VCMPPD $0, (R12), Y10, Y11
	VCMPPD $0, (R12)(R8*1), Y10, Y12
	VANDPD Y12, Y11, Y11
	VMOVMSKPD Y11, AX
	TESTL AX, AX
	JNZ rmasked

rdense:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	ROW(0, Y12, Y13, Y0, Y1)
	ROW(8, Y14, Y15, Y2, Y3)
	ROW(16, Y12, Y13, Y4, Y5)
	ROW(24, Y14, Y15, Y6, Y7)
	ADDQ R8, R12
	VMOVUPD 64(DI), Y8
	VMOVUPD 96(DI), Y9
	ROW(0, Y12, Y13, Y0, Y1)
	ROW(8, Y14, Y15, Y2, Y3)
	ROW(16, Y12, Y13, Y4, Y5)
	ROW(24, Y14, Y15, Y6, Y7)
	ADDQ R8, R12
	ADDQ $128, DI
	DECQ R11
	JNZ rpair
	JMP rtail

rmasked:
	// The same pass, one row at a time, leaving out the rows set in AX.
	MOVQ $2, BX

rsample:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	TESTL $1, AX
	JNZ rskip0
	ROW(0, Y12, Y13, Y0, Y1)

rskip0:
	TESTL $2, AX
	JNZ rskip1
	ROW(8, Y14, Y15, Y2, Y3)

rskip1:
	TESTL $4, AX
	JNZ rskip2
	ROW(16, Y12, Y13, Y4, Y5)

rskip2:
	TESTL $8, AX
	JNZ rskip3
	ROW(24, Y14, Y15, Y6, Y7)

rskip3:
	ADDQ R8, R12
	ADDQ $64, DI
	DECQ BX
	JNZ rsample
	DECQ R11
	JNZ rpair

rtail:
	// An odd last sample skips the rows where its unscaled a is 0.
	MOVQ k+0(FP), AX
	TESTQ $1, AX
	JZ rstore
	MOVQ atail+24(FP), BX
	VCMPPD $0, (BX), Y10, Y11
	VMOVMSKPD Y11, AX
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	ADDQ $64, DI
	TESTL $1, AX
	JNZ rtail0
	ROW(0, Y12, Y13, Y0, Y1)

rtail0:
	TESTL $2, AX
	JNZ rtail1
	ROW(8, Y14, Y15, Y2, Y3)

rtail1:
	TESTL $4, AX
	JNZ rtail2
	ROW(16, Y12, Y13, Y4, Y5)

rtail2:
	TESTL $8, AX
	JNZ rstore
	ROW(24, Y14, Y15, Y6, Y7)

rstore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R10*1)
	VMOVUPD Y3, 32(DX)(R10*1)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (R13)(R10*1)
	VMOVUPD Y7, 32(R13)(R10*1)
	ADDQ $64, DX
	DECQ R9
	JNZ rpanel
	VZEROUPPER
	RET

// func adamLanes(n int, w, m, v, grad *float64, c *[8]float64)
//
// One Adam step on the first n&^3 entries, four per YMM step, with
// c = {β₁, 1−β₁, β₂, 1−β₂, corr₁, corr₂, lr, ε}:
// m = β₁·m + (1−β₁)·grad; v = β₂·v + ((1−β₂)·grad)·grad;
// w = w − (lr·(m/corr₁)) / (sqrt(v/corr₂) + ε).
TEXT ·adamLanes(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ w+8(FP), DI
	MOVQ m+16(FP), SI
	MOVQ v+24(FP), DX
	MOVQ grad+32(FP), BX
	MOVQ c+40(FP), AX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	XORQ AX, AX
	SHRQ $2, CX
	JZ adone

astep:
	VMOVUPD (BX)(AX*8), Y8
	VMULPD (SI)(AX*8), Y0, Y9
	VMULPD Y8, Y1, Y10
	VADDPD Y10, Y9, Y9
	VMOVUPD Y9, (SI)(AX*8)
	VMULPD (DX)(AX*8), Y2, Y10
	VMULPD Y8, Y3, Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y10, Y10
	VMOVUPD Y10, (DX)(AX*8)
	VDIVPD Y4, Y9, Y9
	VMULPD Y9, Y6, Y9
	VDIVPD Y5, Y10, Y10
	VSQRTPD Y10, Y10
	VADDPD Y7, Y10, Y10
	VDIVPD Y10, Y9, Y9
	VMOVUPD (DI)(AX*8), Y11
	VSUBPD Y9, Y11, Y11
	VMOVUPD Y11, (DI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ astep

adone:
	VZEROUPPER
	RET

// func softLanes(n int, w, src *float64, keep, tau float64)
//
// w = w·keep + tau·src on the first n&^3 entries, four per YMM step.
TEXT ·softLanes(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ w+8(FP), DI
	MOVQ src+16(FP), SI
	VBROADCASTSD keep+24(FP), Y0
	VBROADCASTSD tau+32(FP), Y1
	XORQ AX, AX
	SHRQ $2, CX
	JZ sdone

sstep:
	VMULPD (DI)(AX*8), Y0, Y2
	VMULPD (SI)(AX*8), Y1, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ sstep

sdone:
	VZEROUPPER
	RET
