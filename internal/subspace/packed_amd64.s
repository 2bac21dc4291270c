#include "textflag.h"

// func onesPass(scale, ssq, alpha, x, basis []float64, stride int)
//
// For each row i and rank-one slot j, with s = scale[j] and r the
// residual x[i] − basis[i*stride+j]·alpha[j], normStep reads
//
//	r == 0:  nothing
//	s < |r|: q = s/|r|, ssq = 1 + (ssq·q)·q, scale = |r|
//	else:    q = |r|/s, ssq = q² + ssq
//
// and each lane here computes both updates and blends them:
//
//	num = MINPD(s, |r|)    den = MAXPD(|r|, s), the new scale
//	q   = num / MAXPD(den, smallest subnormal)
//	ssq = s < |r| ? 1 + (ssq·q)·q : q² + ssq
//
// s is never NaN: it starts at +0 and only ever takes |r| where
// s < |r|. MINPD and MAXPD return their source operand, the second in
// the notation above, on a NaN or on equal values. So a NaN |r| gives
// num = |r| and keeps s, and q is |r|'s NaN as in normStep's else
// branch. A zero |r| gives num = +0 and q = +0, so ssq becomes
// +0 + ssq, which is ssq, and s stays: the skip of exact zeros. The
// clamp keeps that q from being 0/0 while s is still +0, and changes
// no other quotient, since a den above zero is at least the smallest
// subnormal. Every product and sum has normStep's operands in the
// order the Go compiler emits them, and there is no FMA, so every lane
// keeps the bits, NaN payloads included: b·α keeps b's NaN, v − b·α
// keeps v's, and q² + ssq keeps q²'s.
//
// Registers: DI scale, SI ssq, DX alpha, R8 x[i], R9 rows left,
// R10 basis row i, R11 stride in bytes, CX slots, R12 slots rounded
// down to even, AX slot; X8 sign-clear mask, X9 smallest subnormal,
// X10 1.0, X11 x[i] in both lanes.
TEXT ·onesPass(SB), NOSPLIT, $0-128
	MOVQ scale_base+0(FP), DI
	MOVQ scale_len+8(FP), CX
	MOVQ ssq_base+24(FP), SI
	MOVQ alpha_base+48(FP), DX
	MOVQ x_base+72(FP), R8
	MOVQ x_len+80(FP), R9
	MOVQ basis_base+96(FP), R10
	MOVQ stride+120(FP), R11
	SHLQ $3, R11
	MOVQ CX, R12
	ANDQ $-2, R12
	TESTQ CX, CX
	JZ   done
	TESTQ R9, R9
	JZ   done

	PCMPEQL X8, X8
	PSRLQ   $1, X8      // 0x7fffffffffffffff
	PCMPEQL X9, X9
	PSRLQ   $63, X9     // 0x0000000000000001
	PCMPEQL X10, X10
	PSLLQ   $54, X10
	PSRLQ   $2, X10     // 0x3ff0000000000000

row:
	MOVSD    (R8), X11
	UNPCKLPD X11, X11
	XORQ     AX, AX
	CMPQ     AX, R12
	JGE      odd

pair:
	MOVUPD (R10)(AX*8), X0
	MOVUPD (DX)(AX*8), X1
	MULPD  X1, X0            // b·α
	MOVAPD X11, X2
	SUBPD  X0, X2            // r = v − b·α
	ANDPD  X8, X2            // |r|
	MOVUPD (DI)(AX*8), X3    // s
	MOVAPD X3, X4
	MINPD  X2, X4            // num
	MOVAPD X2, X5
	MAXPD  X3, X5            // den
	MOVUPD X5, (DI)(AX*8)
	MAXPD  X9, X5
	DIVPD  X5, X4            // q
	CMPPD  X2, X3, $1        // s < |r|
	MOVUPD (SI)(AX*8), X6
	MOVAPD X6, X7
	MULPD  X4, X7
	MULPD  X4, X7
	ADDPD  X10, X7           // 1 + (ssq·q)·q
	MULPD  X4, X4
	ADDPD  X6, X4            // q² + ssq
	ANDPD  X3, X7
	ANDNPD X4, X3
	ORPD   X7, X3
	MOVUPD X3, (SI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, R12
	JLT    pair

odd:
	CMPQ   AX, CX
	JGE    next
	MOVSD  (R10)(AX*8), X0
	MULSD  (DX)(AX*8), X0
	MOVAPD X11, X2
	SUBSD  X0, X2
	ANDPD  X8, X2
	MOVSD  (DI)(AX*8), X3
	MOVAPD X3, X4
	MINSD  X2, X4
	MOVAPD X2, X5
	MAXSD  X3, X5
	MOVSD  X5, (DI)(AX*8)
	MAXSD  X9, X5
	DIVSD  X5, X4
	CMPSD  X2, X3, $1
	MOVSD  (SI)(AX*8), X6
	MOVAPD X6, X7
	MULSD  X4, X7
	MULSD  X4, X7
	ADDSD  X10, X7
	MULSD  X4, X4
	ADDSD  X6, X4
	ANDPD  X3, X7
	ANDNPD X4, X3
	ORPD   X7, X3
	MOVSD  X3, (SI)(AX*8)

next:
	ADDQ $8, R8
	ADDQ R11, R10
	DECQ R9
	JNZ  row

done:
	RET
