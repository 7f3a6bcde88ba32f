//go:build amd64 && !purego

#include "textflag.h"

// AVX2 lane kernels, and the AVX-512F tiles gemm4x16 and rank4x16. Every
// YMM or ZMM lane holds a different output entry, and each step is a
// separate, correctly rounded op — VMULPD then VADDPD, and for Adam
// VDIVPD, VSQRTPD and VSUBPD; no FMA — so every entry is rounded exactly
// as the scalar Go loops round it: one ascending chain per entry, starting
// from +0 (VXORPD, VPXORQ) in the product and from dst in the rank-k
// update. The ZMM tiles keep the YMM tiles' operand order, so even a NaN's
// payload comes out the same, and use only Z0–Z15, whose upper halves the
// closing VZEROUPPER clears: no ZMM state stays dirty after a kernel.

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

// func gemm4x8(k int, a *float64, lda int, b *float64, ldb, ldp, npanels int, dst *float64, ldd int)
//
// For each of npanels 8-column panels of b, writes the 4×8 tile dst[r][c]
// = Σ_p a[r][p]·b[p][c] for r < 4, accumulated in ascending p, then moves
// dst 8 columns right. Row p of a panel is the 8 entries ldb·p after its
// start, and each panel starts ldp entries after the one before: ldb = 8
// and ldp = 8k for packed k×8 panels, and ldb = B's row stride and ldp = 8
// for a row-major B read in place. lda, ldb and ldd are row strides in
// elements; npanels must be at least 1.
TEXT ·gemm4x8(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8
	MOVQ b+24(FP), R15
	MOVQ ldb+32(FP), R14
	SHLQ $3, R14
	MOVQ npanels+48(FP), R9
	MOVQ dst+56(FP), DX
	MOVQ ldd+64(FP), R10
	SHLQ $3, R10
	LEAQ (SI)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13

panel:
	MOVQ R15, DI
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

	ADDQ R14, DI
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
	MOVQ ldp+40(FP), BX
	LEAQ (R15)(BX*8), R15
	DECQ R9
	JNZ panel
	VZEROUPPER
	RET

// func gemm4x16(k int, a *float64, lda int, b *float64, ldb, ldp, npairs int, dst *float64, ldd int)
//
// gemm4x8 on ZMM registers, two panels per step: for each of npairs pairs
// of consecutive panels of b, laid out as gemm4x8 reads them, writes the
// 4×16 tile dst[r][c] = Σ_p a[r][p]·b[p][c], the first panel's 8 columns
// then the second's, accumulated in ascending p, then moves dst 16
// columns right. lda, ldb and ldd are row strides in elements; npairs
// must be at least 1.
TEXT ·gemm4x16(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8
	MOVQ b+24(FP), R15
	MOVQ ldb+32(FP), R14
	SHLQ $3, R14
	MOVQ npairs+48(FP), R9
	MOVQ dst+56(FP), DX
	MOVQ ldd+64(FP), R10
	SHLQ $3, R10
	LEAQ (SI)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13

zpair:
	// DI walks the pair's first panel and BX its second, ldp entries on.
	MOVQ R15, DI
	MOVQ ldp+40(FP), BX
	LEAQ (R15)(BX*8), BX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ AX, AX
	MOVQ CX, R8
	TESTQ R8, R8
	JZ zstore

zstep:
	VMOVUPD (DI), Z8
	VMOVUPD (BX), Z9

	VBROADCASTSD (SI)(AX*1), Z10
	VMULPD Z8, Z10, Z11
	VMULPD Z9, Z10, Z10
	VADDPD Z11, Z0, Z0
	VADDPD Z10, Z1, Z1

	VBROADCASTSD (R11)(AX*1), Z12
	VMULPD Z8, Z12, Z13
	VMULPD Z9, Z12, Z12
	VADDPD Z13, Z2, Z2
	VADDPD Z12, Z3, Z3

	VBROADCASTSD (R12)(AX*1), Z14
	VMULPD Z8, Z14, Z15
	VMULPD Z9, Z14, Z14
	VADDPD Z15, Z4, Z4
	VADDPD Z14, Z5, Z5

	VBROADCASTSD (R13)(AX*1), Z10
	VMULPD Z8, Z10, Z11
	VMULPD Z9, Z10, Z10
	VADDPD Z11, Z6, Z6
	VADDPD Z10, Z7, Z7

	ADDQ R14, DI
	ADDQ R14, BX
	ADDQ $8, AX
	DECQ R8
	JNZ zstep

zstore:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (DX)(R10*1)
	VMOVUPD Z3, 64(DX)(R10*1)
	LEAQ (DX)(R10*2), AX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, (AX)(R10*1)
	VMOVUPD Z7, 64(AX)(R10*1)
	ADDQ $128, DX
	MOVQ ldp+40(FP), AX
	SHLQ $4, AX
	ADDQ AX, R15
	DECQ R9
	JNZ zpair
	VZEROUPPER
	RET

// func transpose8(nblocks int, panel, bt *float64, ldb int)
//
// Packs nblocks blocks of eight p's from eight rows of bt (row stride ldb
// elements) into panel, p-major: panel[p*8+q] = bt[q*ldb+p] for q < 8 and
// p < 8·nblocks. Each block is an 8×8 transpose: eight ZMM row loads,
// VUNPCKLPD/VUNPCKHPD pairs, then two rounds of VSHUFF64X2 on 128-bit
// lanes. It only moves bits. nblocks must be at least 1.
TEXT ·transpose8(SB), NOSPLIT, $0-32
	MOVQ nblocks+0(FP), CX
	MOVQ panel+8(FP), DI
	MOVQ bt+16(FP), SI
	MOVQ ldb+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (SI)(R8*4), R10

tblock:
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(R8*1), Z1
	VMOVUPD (SI)(R8*2), Z2
	VMOVUPD (SI)(R9*1), Z3
	VMOVUPD (R10), Z4
	VMOVUPD (R10)(R8*1), Z5
	VMOVUPD (R10)(R8*2), Z6
	VMOVUPD (R10)(R9*1), Z7

	// Z8 + 2j: rows 2j, 2j+1 at even p (lane l holds p = 2l); Z9 + 2j at odd p.
	VUNPCKLPD Z1, Z0, Z8
	VUNPCKHPD Z1, Z0, Z9
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15

	// Lanes {0, 2} then {1, 3} of each pair of rows' lanes: rows 0–3 at
	// p ∈ {0, 4}, {2, 6}, {1, 5}, {3, 7} in Z0–Z3, rows 4–7 in Z4–Z7.
	VSHUFF64X2 $0x88, Z10, Z8, Z0
	VSHUFF64X2 $0xdd, Z10, Z8, Z1
	VSHUFF64X2 $0x88, Z11, Z9, Z2
	VSHUFF64X2 $0xdd, Z11, Z9, Z3
	VSHUFF64X2 $0x88, Z14, Z12, Z4
	VSHUFF64X2 $0xdd, Z14, Z12, Z5
	VSHUFF64X2 $0x88, Z15, Z13, Z6
	VSHUFF64X2 $0xdd, Z15, Z13, Z7

	// Rows 0–3 beside rows 4–7: one panel row per p.
	VSHUFF64X2 $0x88, Z4, Z0, Z8
	VSHUFF64X2 $0xdd, Z4, Z0, Z12
	VSHUFF64X2 $0x88, Z5, Z1, Z10
	VSHUFF64X2 $0xdd, Z5, Z1, Z14
	VSHUFF64X2 $0x88, Z6, Z2, Z9
	VSHUFF64X2 $0xdd, Z6, Z2, Z13
	VSHUFF64X2 $0x88, Z7, Z3, Z11
	VSHUFF64X2 $0xdd, Z7, Z3, Z15

	VMOVUPD Z8, (DI)
	VMOVUPD Z9, 64(DI)
	VMOVUPD Z10, 128(DI)
	VMOVUPD Z11, 192(DI)
	VMOVUPD Z12, 256(DI)
	VMOVUPD Z13, 320(DI)
	VMOVUPD Z14, 384(DI)
	VMOVUPD Z15, 448(DI)
	ADDQ $512, DI
	ADDQ $64, SI
	ADDQ $64, R10
	DECQ CX
	JNZ tblock
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

// func rank4x8(k int, f *float64, ldf int, atail *float64, b *float64, ldb, npanels int, dst *float64, ldd int)
//
// For each of npanels consecutive 8-column panels of the k×n row-major b,
// read in place (row stride ldb; ldb = 8 for one packed k×8 panel), folds
// the k samples into the 4×8 tile of dst in ascending p: dst[r][c] +=
// f[p][r]·b[p][c], where f[p][r] sits at f[p*ldf+r]. The tile is loaded once,
// samples go two per pass, and the tile is stored once, then dst and b
// move 8 columns right. Row r skips a pass whose two f's are both 0 and, when k
// is odd, skips the last sample where atail[r] == 0 — the pure-Go kernel's
// rules. ldf, ldb and ldd are row strides in elements; k and npanels must
// be at least 1.
TEXT ·rank4x8(SB), NOSPLIT, $0-72
	MOVQ f+8(FP), SI
	MOVQ ldf+16(FP), R8
	SHLQ $3, R8
	MOVQ b+32(FP), R15
	MOVQ ldb+40(FP), R14
	SHLQ $3, R14
	MOVQ npanels+48(FP), R9
	MOVQ dst+56(FP), DX
	MOVQ ldd+64(FP), R10
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
	MOVQ R15, DI
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
	VMOVUPD (DI)(R14*1), Y8
	VMOVUPD 32(DI)(R14*1), Y9
	ROW(0, Y12, Y13, Y0, Y1)
	ROW(8, Y14, Y15, Y2, Y3)
	ROW(16, Y12, Y13, Y4, Y5)
	ROW(24, Y14, Y15, Y6, Y7)
	ADDQ R8, R12
	LEAQ (DI)(R14*2), DI
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
	ADDQ R14, DI
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
	ADDQ $64, R15
	DECQ R9
	JNZ rpanel
	VZEROUPPER
	RET

// ROWZ is ROW for the ZMM tile: acc0:acc1 += f·b, with f broadcast from
// off(R12) and the sample's sixteen b entries in Z8:Z9.
#define ROWZ(off, t0, t1, acc0, acc1) \
	VBROADCASTSD off(R12), t0; \
	VMULPD Z8, t0, t1; \
	VMULPD Z9, t0, t0; \
	VADDPD t1, acc0, acc0; \
	VADDPD t0, acc1, acc1

// func rank4x16(k int, f *float64, ldf int, atail *float64, b *float64, ldb, npairs int, dst *float64, ldd int)
//
// rank4x8 on ZMM registers, two panels per step: for each of npairs pairs
// of consecutive 8-column panels of b, read in place as rank4x8 reads
// them, folds the k samples into the 4×16 tile of dst in ascending p, the
// first panel's 8 columns then the second's, then moves dst and b 16
// columns right. The skip rules are rank4x8's, computed on the same YMM
// compares; k and npairs must be at least 1.
TEXT ·rank4x16(SB), NOSPLIT, $0-72
	MOVQ f+8(FP), SI
	MOVQ ldf+16(FP), R8
	SHLQ $3, R8
	MOVQ b+32(FP), R15
	MOVQ ldb+40(FP), R14
	SHLQ $3, R14
	MOVQ npairs+48(FP), R9
	MOVQ dst+56(FP), DX
	MOVQ ldd+64(FP), R10
	SHLQ $3, R10
	VXORPD Y10, Y10, Y10

	// CX = 0 when no f of these rows is 0, nor any atail.
	MOVQ k+0(FP), R11
	MOVQ SI, R12
	MOVQ atail+24(FP), BX
	VCMPPD $0, (BX), Y10, Y11

zscan:
	VCMPPD $0, (R12), Y10, Y12
	VORPD Y12, Y11, Y11
	ADDQ R8, R12
	DECQ R11
	JNZ zscan
	VMOVMSKPD Y11, CX

zrpanel:
	// A row of the pair is the 16 entries at DI.
	MOVQ R15, DI
	LEAQ (DX)(R10*2), R13
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD (DX)(R10*1), Z2
	VMOVUPD 64(DX)(R10*1), Z3
	VMOVUPD (R13), Z4
	VMOVUPD 64(R13), Z5
	VMOVUPD (R13)(R10*1), Z6
	VMOVUPD 64(R13)(R10*1), Z7
	MOVQ SI, R12
	MOVQ k+0(FP), R11
	SHRQ $1, R11
	JZ zrtail

zrpair:
	TESTL CX, CX
	JZ zrdense
	// AX bit r: both f's of row r are 0 in this pass.
	VCMPPD $0, (R12), Y10, Y11
	VCMPPD $0, (R12)(R8*1), Y10, Y12
	VANDPD Y12, Y11, Y11
	VMOVMSKPD Y11, AX
	TESTL AX, AX
	JNZ zrmasked

zrdense:
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9
	ROWZ(0, Z12, Z13, Z0, Z1)
	ROWZ(8, Z14, Z15, Z2, Z3)
	ROWZ(16, Z12, Z13, Z4, Z5)
	ROWZ(24, Z14, Z15, Z6, Z7)
	ADDQ R8, R12
	VMOVUPD (DI)(R14*1), Z8
	VMOVUPD 64(DI)(R14*1), Z9
	ROWZ(0, Z12, Z13, Z0, Z1)
	ROWZ(8, Z14, Z15, Z2, Z3)
	ROWZ(16, Z12, Z13, Z4, Z5)
	ROWZ(24, Z14, Z15, Z6, Z7)
	ADDQ R8, R12
	LEAQ (DI)(R14*2), DI
	DECQ R11
	JNZ zrpair
	JMP zrtail

zrmasked:
	// The same pass, one row at a time, leaving out the rows set in AX.
	MOVQ $2, BX

zrsample:
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9
	TESTL $1, AX
	JNZ zrskip0
	ROWZ(0, Z12, Z13, Z0, Z1)

zrskip0:
	TESTL $2, AX
	JNZ zrskip1
	ROWZ(8, Z14, Z15, Z2, Z3)

zrskip1:
	TESTL $4, AX
	JNZ zrskip2
	ROWZ(16, Z12, Z13, Z4, Z5)

zrskip2:
	TESTL $8, AX
	JNZ zrskip3
	ROWZ(24, Z14, Z15, Z6, Z7)

zrskip3:
	ADDQ R8, R12
	ADDQ R14, DI
	DECQ BX
	JNZ zrsample
	DECQ R11
	JNZ zrpair

zrtail:
	// An odd last sample skips the rows where its unscaled a is 0.
	MOVQ k+0(FP), AX
	TESTQ $1, AX
	JZ zrstore
	MOVQ atail+24(FP), BX
	VCMPPD $0, (BX), Y10, Y11
	VMOVMSKPD Y11, AX
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9
	TESTL $1, AX
	JNZ zrtail0
	ROWZ(0, Z12, Z13, Z0, Z1)

zrtail0:
	TESTL $2, AX
	JNZ zrtail1
	ROWZ(8, Z14, Z15, Z2, Z3)

zrtail1:
	TESTL $4, AX
	JNZ zrtail2
	ROWZ(16, Z12, Z13, Z4, Z5)

zrtail2:
	TESTL $8, AX
	JNZ zrstore
	ROWZ(24, Z14, Z15, Z6, Z7)

zrstore:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (DX)(R10*1)
	VMOVUPD Z3, 64(DX)(R10*1)
	VMOVUPD Z4, (R13)
	VMOVUPD Z5, 64(R13)
	VMOVUPD Z6, (R13)(R10*1)
	VMOVUPD Z7, 64(R13)(R10*1)
	ADDQ $128, DX
	ADDQ $128, R15
	DECQ R9
	JNZ zrpanel
	VZEROUPPER
	RET

// func reluLanes(n int, out, pre, b *float64)
//
// out = x where x = pre + b is greater than +0 and +0 elsewhere, on the
// first n&^3 entries, four per YMM step: VCMPPD's ordered greater-than
// (predicate 0x1e) is false for ±0, negatives and NaN of either sign, and
// its mask ANDed with x keeps x or clears it to +0.
TEXT ·reluLanes(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ out+8(FP), DI
	MOVQ pre+16(FP), SI
	MOVQ b+24(FP), DX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	SHRQ $2, CX
	JZ rldone

rlstep:
	VMOVUPD (SI)(AX*8), Y1
	VADDPD (DX)(AX*8), Y1, Y1
	VCMPPD $0x1e, Y0, Y1, Y2
	VANDPD Y1, Y2, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ rlstep

rldone:
	VZEROUPPER
	RET

// func reluGradLanes(n int, dPre, out, dOut, dB *float64)
//
// dPre = dOut where out is greater than +0 and +0 elsewhere, and dB +=
// dPre unless dB is nil, on the first n&^3 entries, four per YMM step.
TEXT ·reluGradLanes(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ dPre+8(FP), DI
	MOVQ out+16(FP), SI
	MOVQ dOut+24(FP), R8
	MOVQ dB+32(FP), DX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	SHRQ $2, CX
	JZ rgdone
	TESTQ DX, DX
	JZ rgplain

rgbias:
	VMOVUPD (SI)(AX*8), Y1
	VCMPPD $0x1e, Y0, Y1, Y1
	VANDPD (R8)(AX*8), Y1, Y1
	VMOVUPD (DX)(AX*8), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, (DX)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ rgbias
	JMP rgdone

rgplain:
	VMOVUPD (SI)(AX*8), Y1
	VCMPPD $0x1e, Y0, Y1, Y1
	VANDPD (R8)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ rgplain

rgdone:
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
