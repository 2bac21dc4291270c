#include "textflag.h"

// The scoring lanes: four rows or four slots side by side in the lanes
// of one 256-bit AVX register. Each lane performs exactly the scalar
// operations of the Go loop it stands for (coefficientsGo,
// residualRowsGo, rankOneGo): the same operands in the order the Go
// compiler emits them, the destination operand first, which decides a
// NaN payload when both operands are NaN (in a VEX instruction the
// first source, the middle operand here); sums from +0 (VXORPD) in
// element or column order; one rounding per VMULPD, VADDPD, VSUBPD or
// VDIVPD and no FMA. So every lane has its loop's bits, NaN payloads
// included. The caller has checked that the CPU and the operating
// system support AVX (mat.HasAVX). Each kernel clears the registers'
// upper halves (VZEROUPPER) before it returns, and each loop head
// carries PCALIGN $32, so a loop's speed does not depend on where the
// linker places the function.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

DATA tiny<>+0(SB)/8, $0x0000000000000001
GLOBL tiny<>(SB), RODATA|NOPTR, $8

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// func quadCoefficients(alpha, pinv, x []float64)
//
// alpha[t] = Σ_j q_t[j]·x[j] for the len(alpha) rows of pinv, held in
// len(alpha)/4 quads of len(x) columns: per column, s += q·v with v
// broadcast, four quads at a time while four are left, then one at a
// time.
//
// Registers: DI alpha, CX quads left, SI pinv quad, R8 x, R9 len(x),
// R11 bytes per quad, R13 three quads' bytes, R10 column of the quads,
// BX x[j], DX columns left; Y0–Y3 the sums, Y4 v.
TEXT ·quadCoefficients(SB), NOSPLIT, $0-72
	MOVQ alpha_base+0(FP), DI
	MOVQ alpha_len+8(FP), CX
	MOVQ pinv_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), R9
	SHRQ $2, CX
	MOVQ R9, R11
	SHLQ $5, R11
	LEAQ (R11)(R11*2), R13

four:
	CMPQ   CX, $4
	JLT    one
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   R8, BX
	MOVQ   R9, DX
	TESTQ  DX, DX
	JZ     fourstore

	PCALIGN $32
fourloop:
	VBROADCASTSD (BX), Y4
	VMOVUPD      (R10), Y5
	VMOVUPD      (R10)(R11*1), Y6
	VMOVUPD      (R10)(R11*2), Y7
	VMOVUPD      (R10)(R13*1), Y8
	VMULPD       Y4, Y5, Y5   // q·v
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0   // s + q·v
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, BX
	ADDQ         $32, R10
	DECQ         DX
	JNZ          fourloop

fourstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (SI)(R11*4), SI
	SUBQ    $4, CX
	JMP     four

one:
	TESTQ  CX, CX
	JZ     done
	VXORPD Y0, Y0, Y0
	MOVQ   R8, BX
	MOVQ   R9, DX
	TESTQ  DX, DX
	JZ     onestore

	PCALIGN $32
oneloop:
	VBROADCASTSD (BX), Y4
	VMOVUPD      (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, BX
	ADDQ         $32, SI
	DECQ         DX
	JNZ          oneloop

onestore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JMP     one

done:
	VZEROUPPER
	RET

// func quadResidualRows(dst, x, ud, alpha []float64)
//
// dst[i] = x[i] − Σ_t u_i[t]·α[t] for the len(x) rows of ud, a multiple
// of four, held in quads of len(alpha) columns: per quad, s += u·α with
// α broadcast, in column order, then x − s.
//
// Registers: DI dst, R8 x, CX quads left, SI ud column, DX alpha, R9
// len(alpha), AX column; Y0 the sums.
TEXT ·quadResidualRows(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), R8
	MOVQ x_len+32(FP), CX
	MOVQ ud_base+48(FP), SI
	MOVQ alpha_base+72(FP), DX
	MOVQ alpha_len+80(FP), R9
	SHRQ $2, CX
	JZ   done

	PCALIGN $32
quad:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	TESTQ  R9, R9
	JZ     store

	PCALIGN $32
col:
	VBROADCASTSD (DX)(AX*8), Y1
	VMOVUPD      (SI), Y2
	VMULPD       Y1, Y2, Y2 // u·α
	VADDPD       Y2, Y0, Y0 // s + u·α
	ADDQ         $32, SI
	INCQ         AX
	CMPQ         AX, R9
	JLT          col

store:
	VMOVUPD (R8), Y3
	VSUBPD  Y0, Y3, Y3 // x − s
	VMOVUPD Y3, (DI)
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    CX
	JNZ     quad

done:
	VZEROUPPER
	RET

// func quadRankOne(scale, ssq, alpha, x, basis []float64, stride int)
//
// For each row i and each slot j < len(scale), a multiple of four, with
// s = scale[j] and r the residual x[i] − basis[i*stride+j]·alpha[j],
// normStep reads
//
//	r == 0:  nothing
//	s < |r|: q = s/|r|, ssq = 1 + (ssq·q)·q, scale = |r|
//	else:    q = |r|/s, ssq = q² + ssq
//
// and each lane here computes both updates and blends them:
//
//	num = VMINPD(s, |r|)    den = VMAXPD(|r|, s), the new scale
//	q   = num / VMAXPD(den, smallest subnormal)
//	ssq = s < |r| ? 1 + (ssq·q)·q : q² + ssq
//
// s is never NaN: it starts at +0 and only ever takes |r| where
// s < |r|. VMINPD and VMAXPD return their second source, the first
// operand here, on a NaN or on equal values. So a NaN |r| gives
// num = |r| and keeps s, and q is |r|'s NaN as in normStep's else
// branch. A zero |r| gives num = +0 and q = +0, so ssq becomes
// +0 + ssq, which is ssq, and s stays: the skip of exact zeros. The
// clamp keeps that q from being 0/0 while s is still +0, and changes
// no other quotient, since a den above zero is at least the smallest
// subnormal. b·α keeps b's NaN, v − b·α keeps v's, (ssq·q)·q keeps
// ssq's and q² + ssq keeps q²'s, as rankOneGo does.
//
// Registers: DI scale, SI ssq, DX alpha, R8 x[i], R9 rows left, R10
// basis row i, R11 stride in bytes, CX slots, AX slot; Y8 sign-clear
// mask, Y9 smallest subnormal, Y10 1.0, Y11 x[i] in every lane.
TEXT ·quadRankOne(SB), NOSPLIT, $0-128
	MOVQ  scale_base+0(FP), DI
	MOVQ  scale_len+8(FP), CX
	MOVQ  ssq_base+24(FP), SI
	MOVQ  alpha_base+48(FP), DX
	MOVQ  x_base+72(FP), R8
	MOVQ  x_len+80(FP), R9
	MOVQ  basis_base+96(FP), R10
	MOVQ  stride+120(FP), R11
	SHLQ  $3, R11
	TESTQ CX, CX
	JZ    done
	TESTQ R9, R9
	JZ    done

	VBROADCASTSD absmask<>(SB), Y8
	VBROADCASTSD tiny<>(SB), Y9
	VBROADCASTSD one<>(SB), Y10

	PCALIGN $32
row:
	VBROADCASTSD (R8), Y11
	XORQ         AX, AX

	PCALIGN $32
quad:
	VMOVUPD   (R10)(AX*8), Y0
	VMULPD    (DX)(AX*8), Y0, Y0 // b·α
	VSUBPD    Y0, Y11, Y2        // r = v − b·α
	VANDPD    Y8, Y2, Y2         // |r|
	VMOVUPD   (DI)(AX*8), Y3     // s
	VMINPD    Y2, Y3, Y4         // num
	VMAXPD    Y3, Y2, Y5         // den
	VMOVUPD   Y5, (DI)(AX*8)
	VMAXPD    Y9, Y5, Y5
	VDIVPD    Y5, Y4, Y4         // q
	VCMPPD    $1, Y2, Y3, Y3     // s < |r|
	VMOVUPD   (SI)(AX*8), Y6     // ssq
	VMULPD    Y4, Y6, Y7
	VMULPD    Y4, Y7, Y7
	VADDPD    Y10, Y7, Y7        // 1 + (ssq·q)·q
	VMULPD    Y4, Y4, Y4
	VADDPD    Y6, Y4, Y4         // q² + ssq
	VBLENDVPD Y3, Y7, Y4, Y4
	VMOVUPD   Y4, (SI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       quad

	ADDQ $8, R8
	ADDQ R11, R10
	DECQ R9
	JNZ  row

done:
	VZEROUPPER
	RET
