//go:build amd64 && !purego

#include "textflag.h"

// tanhLanes replays math.tanh (src/math/tanh.go) one element per YMM lane,
// on x = pre + b. Every lane computes both of tanh's branches and keeps the
// one tanh would take: the rational branch x + A/Q with separate multiplies
// and adds in Go's order, and 1 − 2/(e+1) with e = exp(2|x|) as the avxfma
// path of math.archExp (src/math/exp_amd64.s) computes it, op for op. The
// two branches share one divide: each lane blends the numerator and the
// denominator of the branch it keeps (A/Q or 2/(e+1)) before VDIVPD, so
// every lane still divides exactly the operands math.tanh divides. For
// 0.625 ≤ |x| ≤ 0.5·MAXLOG the exp path is straight-line: 2|x| is at most
// 89, so archExp's overflow, underflow and denormal exits are never taken.

// Each constant is repeated in four lanes so it can be a memory operand;
// tanhLanes512 broadcasts the first lane of each into all eight (.BCST).
#define LANES(off, v) \
	DATA tanhconst<>+(off)(SB)/8, v; \
	DATA tanhconst<>+(off+8)(SB)/8, v; \
	DATA tanhconst<>+(off+16)(SB)/8, v; \
	DATA tanhconst<>+(off+24)(SB)/8, v

LANES(0, $0x7fffffffffffffff)
LANES(32, $0x8000000000000000)
LANES(64, $1.4426950408889634073599246810018920)                   // LOG2E
LANES(96, $0.69314718055966295651160180568695068359375)            // LN2U
LANES(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(160, $0.0625)
LANES(192, $2.4801587301587301587e-5)
LANES(224, $1.9841269841269841270e-4)
LANES(256, $1.3888888888888888889e-3)
LANES(288, $8.3333333333333333333e-3)
LANES(320, $4.1666666666666666667e-2)
LANES(352, $1.6666666666666666667e-1)
LANES(384, $0.5)
LANES(416, $1.0)
LANES(448, $2.0)
LANES(480, $1023)
LANES(512, $-9.64399179425052238628e-1) // tanhP
LANES(544, $-9.92877231001918586564e1)
LANES(576, $-1.61468768441708447952e3)
LANES(608, $1.12811678491632931402e2)   // tanhQ
LANES(640, $2.23548839060100448583e3)
LANES(672, $4.84406305325125486048e3)
LANES(704, $0.625)
LANES(736, $44.014845965556527147994)   // 0.5·MAXLOG
GLOBL tanhconst<>(SB), RODATA, $768

#define ABS tanhconst<>+0(SB)
#define SIGN tanhconst<>+32(SB)
#define LOG2E tanhconst<>+64(SB)
#define LN2U tanhconst<>+96(SB)
#define LN2L tanhconst<>+128(SB)
#define SIXTEENTH tanhconst<>+160(SB)
#define EXP7 tanhconst<>+192(SB)
#define EXP6 tanhconst<>+224(SB)
#define EXP5 tanhconst<>+256(SB)
#define EXP4 tanhconst<>+288(SB)
#define EXP3 tanhconst<>+320(SB)
#define EXP2 tanhconst<>+352(SB)
#define HALF tanhconst<>+384(SB)
#define ONE tanhconst<>+416(SB)
#define TWO tanhconst<>+448(SB)
#define BIAS tanhconst<>+480(SB)
#define P0 tanhconst<>+512(SB)
#define P1 tanhconst<>+544(SB)
#define P2 tanhconst<>+576(SB)
#define Q0 tanhconst<>+608(SB)
#define Q1 tanhconst<>+640(SB)
#define Q2 tanhconst<>+672(SB)
#define EXPMIN tanhconst<>+704(SB)
#define SATURATE tanhconst<>+736(SB)

// The stages of one four-lane step, for x in X. Y12 holds 1.0, Y13 2.0 and
// Y15 zero throughout; the other arguments are scratch registers, KX being
// K's lower half.

// EXPA: R = (2z − k·LN2U − k·LN2L)·0.0625 with k = round(2z·LOG2E),
// converted to int32 in KX and back to float64 in KF.
#define EXPA(X, R, KF, KX) \
	VANDPD       ABS, X, R; \
	VADDPD       R, R, R; \
	VMULPD       LOG2E, R, KF; \
	VCVTPD2DQY   KF, KX; \
	VCVTDQ2PD    KX, KF; \
	VFNMADD231PD LN2U, KF, R; \
	VFNMADD231PD LN2L, KF, R; \
	VMULPD       SIXTEENTH, R, R

// EXPB: P = the seven-term Horner chain in R, one VFMADD213PD per term.
#define EXPB(R, P) \
	VMOVUPD     EXP7, P; \
	VFMADD213PD EXP6, R, P; \
	VFMADD213PD EXP5, R, P; \
	VFMADD213PD EXP4, R, P; \
	VFMADD213PD EXP3, R, P; \
	VFMADD213PD EXP2, R, P; \
	VFMADD213PD HALF, R, P; \
	VFMADD213PD Y12, R, P

// EXPC: R·P, then three (R+2)·R steps and a fused (R+2)·R + 1.
#define EXPC(R, P) \
	VMULPD      P, R, R; \
	VADDPD      Y13, R, P; \
	VMULPD      P, R, R; \
	VADDPD      Y13, R, P; \
	VMULPD      P, R, R; \
	VADDPD      Y13, R, P; \
	VMULPD      P, R, R; \
	VADDPD      Y13, R, P; \
	VFMADD213PD Y12, P, R

// EXPD: R = e + 1, e = R·2^k with 2^k = (k+1023)<<52.
#define EXPD(R, K, KX) \
	VPMOVSXDQ KX, K; \
	VPADDQ    BIAS, K, K; \
	VPSLLQ    $52, K, K; \
	VMULPD    K, R, R; \
	VADDPD    Y12, R, R

// RAT: A = (x·s)·P(s) and Q = Q(s), s = x²: the rational branch's
// numerator and denominator.
#define RAT(X, S, A, P, Q) \
	VMULPD X, X, S; \
	VMULPD S, X, A; \
	VMULPD P0, S, P; \
	VADDPD P1, P, P; \
	VMULPD S, P, P; \
	VADDPD P2, P, P; \
	VMULPD P, A, A; \
	VADDPD Q0, S, Q; \
	VMULPD S, Q, Q; \
	VADDPD Q1, Q, Q; \
	VMULPD S, Q, Q; \
	VADDPD Q2, Q, Q

// DIV: M = (|x| ≥ 0.625) with |x| in Z, then the one divide A = N/D with
// N/D = 2/R (R = e+1) where M is set and A/Q elsewhere.
#define DIV(X, R, A, Q, Z, M) \
	VANDPD    ABS, X, Z; \
	VCMPPD    $0x1d, EXPMIN, Z, M; \
	VBLENDVPD M, Y13, A, A; \
	VBLENDVPD M, R, Q, Q; \
	VDIVPD    Q, A, A

// PICK: keep in A the branch tanh takes, given the quotient A and DIV's M
// and Z: ±(1 − A) with the sign of x where M is set, x + A elsewhere; ±1
// for |x| > 0.5·MAXLOG, x itself for ±0. NaN fails every compare and keeps
// x + A.
#define PICK(X, R, A, Q, Z, M) \
	VSUBPD    A, Y12, R; \
	VANDPD    SIGN, X, Q; \
	VXORPD    Q, R, R; \
	VADDPD    A, X, A; \
	VBLENDVPD M, R, A, A; \
	VCMPPD    $0x1e, SATURATE, Z, M; \
	VANDPD    SIGN, X, Z; \
	VORPD     Y12, Z, Z; \
	VBLENDVPD M, Z, A, A; \
	VCMPPD    $0x00, Y15, X, M; \
	VBLENDVPD M, X, A, A

// func tanhLanes(n int, out, pre, b *float64)
//
// out[i] = math.Tanh(pre[i] + b[i]) for i < n; n must be a multiple of 4.
// Eight elements per step as two interleaved four-lane chains (the exp
// chain is latency-bound), then one four-lane step if n mod 8 = 4. out may
// equal pre: each step loads its inputs before storing.
TEXT ·tanhLanes(SB), NOSPLIT, $0-32
	MOVQ    n+0(FP), CX
	MOVQ    out+8(FP), DI
	MOVQ    pre+16(FP), SI
	MOVQ    b+24(FP), DX
	VXORPD  Y15, Y15, Y15
	VMOVUPD ONE, Y12
	VMOVUPD TWO, Y13
	MOVQ    CX, BX
	SHRQ    $3, BX
	JZ      four

eight:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y5
	VADDPD  (DX), Y0, Y0
	VADDPD  32(DX), Y5, Y5
	EXPA(Y0, Y1, Y2, X3)
	EXPA(Y5, Y6, Y7, X8)
	EXPB(Y1, Y4)
	EXPB(Y6, Y9)
	EXPC(Y1, Y4)
	EXPC(Y6, Y9)
	EXPD(Y1, Y3, X3)
	EXPD(Y6, Y8, X8)
	RAT(Y0, Y2, Y3, Y4, Y10)
	RAT(Y5, Y7, Y8, Y9, Y11)
	DIV(Y0, Y1, Y3, Y10, Y2, Y4)
	DIV(Y5, Y6, Y8, Y11, Y7, Y9)
	PICK(Y0, Y1, Y3, Y10, Y2, Y4)
	PICK(Y5, Y6, Y8, Y11, Y7, Y9)
	VMOVUPD Y3, (DI)
	VMOVUPD Y8, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     eight

four:
	TESTQ   $4, CX
	JZ      done
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	EXPA(Y0, Y1, Y2, X3)
	EXPB(Y1, Y4)
	EXPC(Y1, Y4)
	EXPD(Y1, Y3, X3)
	RAT(Y0, Y2, Y3, Y4, Y10)
	DIV(Y0, Y1, Y3, Y10, Y2, Y4)
	PICK(Y0, Y1, Y3, Y10, Y2, Y4)
	VMOVUPD Y3, (DI)

done:
	VZEROUPPER
	RET

// The same stages on eight ZMM lanes, op for op: constants are embedded
// broadcasts, the sign masks VPANDQ, VPXORQ and VPORQ, and each blend a
// VCMPPD into an opmask (K1 for one chain, K2 for the other) then
// VBLENDMPD. Z12 holds 1.0, Z13 2.0 and Z14 zero throughout; KX is an
// eight-lane int32 YMM register. Only Z0–Z15 are used, so the closing
// VZEROUPPER leaves no ZMM state dirty.

#define EXPAZ(X, R, KF, KX) \
	VPANDQ.BCST       ABS, X, R; \
	VADDPD            R, R, R; \
	VMULPD.BCST       LOG2E, R, KF; \
	VCVTPD2DQ         KF, KX; \
	VCVTDQ2PD         KX, KF; \
	VFNMADD231PD.BCST LN2U, KF, R; \
	VFNMADD231PD.BCST LN2L, KF, R; \
	VMULPD.BCST       SIXTEENTH, R, R

#define EXPBZ(R, P) \
	VBROADCASTSD     EXP7, P; \
	VFMADD213PD.BCST EXP6, R, P; \
	VFMADD213PD.BCST EXP5, R, P; \
	VFMADD213PD.BCST EXP4, R, P; \
	VFMADD213PD.BCST EXP3, R, P; \
	VFMADD213PD.BCST EXP2, R, P; \
	VFMADD213PD.BCST HALF, R, P; \
	VFMADD213PD      Z12, R, P

#define EXPCZ(R, P) \
	VMULPD      P, R, R; \
	VADDPD      Z13, R, P; \
	VMULPD      P, R, R; \
	VADDPD      Z13, R, P; \
	VMULPD      P, R, R; \
	VADDPD      Z13, R, P; \
	VMULPD      P, R, R; \
	VADDPD      Z13, R, P; \
	VFMADD213PD Z12, P, R

#define EXPDZ(R, K, KX) \
	VPMOVSXDQ   KX, K; \
	VPADDQ.BCST BIAS, K, K; \
	VPSLLQ      $52, K, K; \
	VMULPD      K, R, R; \
	VADDPD      Z12, R, R

#define RATZ(X, S, A, P, Q) \
	VMULPD      X, X, S; \
	VMULPD      S, X, A; \
	VMULPD.BCST P0, S, P; \
	VADDPD.BCST P1, P, P; \
	VMULPD      S, P, P; \
	VADDPD.BCST P2, P, P; \
	VMULPD      P, A, A; \
	VADDPD.BCST Q0, S, Q; \
	VMULPD      S, Q, Q; \
	VADDPD.BCST Q1, Q, Q; \
	VMULPD      S, Q, Q; \
	VADDPD.BCST Q2, Q, Q

#define DIVZ(X, R, A, Q, Z, M) \
	VPANDQ.BCST ABS, X, Z; \
	VCMPPD.BCST $0x1d, EXPMIN, Z, M; \
	VBLENDMPD   Z13, A, M, A; \
	VBLENDMPD   R, Q, M, Q; \
	VDIVPD      Q, A, A

#define PICKZ(X, R, A, Q, Z, M) \
	VSUBPD      A, Z12, R; \
	VPANDQ.BCST SIGN, X, Q; \
	VPXORQ      Q, R, R; \
	VADDPD      A, X, A; \
	VBLENDMPD   R, A, M, A; \
	VCMPPD.BCST $0x1e, SATURATE, Z, M; \
	VPANDQ.BCST SIGN, X, Z; \
	VPORQ       Z12, Z, Z; \
	VBLENDMPD   Z, A, M, A; \
	VCMPPD      $0x00, Z14, X, M; \
	VBLENDMPD   X, A, M, A

// func tanhLanes512(n int, out, pre, b *float64)
//
// tanhLanes on ZMM registers: out[i] = math.Tanh(pre[i] + b[i]) for i < n;
// n must be a multiple of 8. Sixteen elements per step as two interleaved
// eight-lane chains, then one eight-lane step if n mod 16 = 8. out may
// equal pre: each step loads its inputs before storing.
TEXT ·tanhLanes512(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	MOVQ         out+8(FP), DI
	MOVQ         pre+16(FP), SI
	MOVQ         b+24(FP), DX
	VPXORQ       Z14, Z14, Z14
	VBROADCASTSD ONE, Z12
	VBROADCASTSD TWO, Z13
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           zeight

zsixteen:
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z5
	VADDPD  (DX), Z0, Z0
	VADDPD  64(DX), Z5, Z5
	EXPAZ(Z0, Z1, Z2, Y3)
	EXPAZ(Z5, Z6, Z7, Y8)
	EXPBZ(Z1, Z4)
	EXPBZ(Z6, Z9)
	EXPCZ(Z1, Z4)
	EXPCZ(Z6, Z9)
	EXPDZ(Z1, Z3, Y3)
	EXPDZ(Z6, Z8, Y8)
	RATZ(Z0, Z2, Z3, Z4, Z10)
	RATZ(Z5, Z7, Z8, Z9, Z11)
	DIVZ(Z0, Z1, Z3, Z10, Z2, K1)
	DIVZ(Z5, Z6, Z8, Z11, Z7, K2)
	PICKZ(Z0, Z1, Z3, Z10, Z2, K1)
	PICKZ(Z5, Z6, Z8, Z11, Z7, K2)
	VMOVUPD Z3, (DI)
	VMOVUPD Z8, 64(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	DECQ    BX
	JNZ     zsixteen

zeight:
	TESTQ   $8, CX
	JZ      zdone
	VMOVUPD (SI), Z0
	VADDPD  (DX), Z0, Z0
	EXPAZ(Z0, Z1, Z2, Y3)
	EXPBZ(Z1, Z4)
	EXPCZ(Z1, Z4)
	EXPDZ(Z1, Z3, Y3)
	RATZ(Z0, Z2, Z3, Z4, Z10)
	DIVZ(Z0, Z1, Z3, Z10, Z2, K1)
	PICKZ(Z0, Z1, Z3, Z10, Z2, K1)
	VMOVUPD Z3, (DI)

zdone:
	VZEROUPPER
	RET

// func tanhGradLanes(n int, dPre, out, dOut, dB *float64)
//
// dPre[i] = dOut[i]·(1 − out[i]·out[i]) for i < n, four per YMM step, and
// dB[i] += dPre[i] unless dB is nil; n must be a multiple of 4. Each entry
// is the scalar loop's separate multiply, subtract, multiply and add.
// dPre may equal dOut: each step loads its inputs before storing.
TEXT ·tanhGradLanes(SB), NOSPLIT, $0-40
	MOVQ    n+0(FP), CX
	MOVQ    dPre+8(FP), DI
	MOVQ    out+16(FP), SI
	MOVQ    dOut+24(FP), R8
	MOVQ    dB+32(FP), DX
	VMOVUPD ONE, Y12
	SHRQ    $2, CX
	JZ      gdone
	TESTQ   DX, DX
	JZ      gplain

gbias:
	VMOVUPD (SI), Y0
	VMOVUPD (R8), Y1
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y12, Y0
	VMULPD  Y0, Y1, Y0
	VMOVUPD (DX), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     gbias
	JMP     gdone

gplain:
	VMOVUPD (SI), Y0
	VMOVUPD (R8), Y1
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y12, Y0
	VMULPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gplain

gdone:
	VZEROUPPER
	RET

// func tanhGradLanes512(n int, dPre, out, dOut, dB *float64)
//
// tanhGradLanes on ZMM registers, eight per step; n must be a multiple of 8.
TEXT ·tanhGradLanes512(SB), NOSPLIT, $0-40
	MOVQ         n+0(FP), CX
	MOVQ         dPre+8(FP), DI
	MOVQ         out+16(FP), SI
	MOVQ         dOut+24(FP), R8
	MOVQ         dB+32(FP), DX
	VBROADCASTSD ONE, Z12
	SHRQ         $3, CX
	JZ           zgdone
	TESTQ        DX, DX
	JZ           zgplain

zgbias:
	VMOVUPD (SI), Z0
	VMOVUPD (R8), Z1
	VMULPD  Z0, Z0, Z0
	VSUBPD  Z0, Z12, Z0
	VMULPD  Z0, Z1, Z0
	VMOVUPD (DX), Z1
	VADDPD  Z0, Z1, Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DX)
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    CX
	JNZ     zgbias
	JMP     zgdone

zgplain:
	VMOVUPD (SI), Z0
	VMOVUPD (R8), Z1
	VMULPD  Z0, Z0, Z0
	VSUBPD  Z0, Z12, Z0
	VMULPD  Z0, Z1, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, DI
	DECQ    CX
	JNZ     zgplain

zgdone:
	VZEROUPPER
	RET
