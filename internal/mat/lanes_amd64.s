#include "textflag.h"

// SSE2 lanes for independent problems. One-sided Jacobi sums and
// triangular substitutions are chains of dependent adds, so one
// problem cannot run faster than its add latency; problems side by
// side in the lanes of one register can. Each lane performs exactly
// the scalar operations of the Go loop it stands for: the same
// operands in the order the Go compiler emits them (the destination
// operand first, which decides a NaN payload when both operands are
// NaN), accumulators from +0 (XORPD) where Go starts from +0, one
// rounding per MULPD, ADDPD, SUBPD or DIVPD, and no FMA. So every lane
// has the bits of the scalar path: FactorSVD for pairSums and
// pairRotate, LU.Solve for solveLanes8.
//
// Each loop head carries PCALIGN $32, so a loop's speed does not
// depend on where the linker places the function.

// func pairSums(sums *[6]float64, wp, wq []float64)
//
// Over the len(wp)/2 rows of two interleaved columns, FactorSVD's
//
//	alpha += xp·xp    beta += xq·xq    gamma += xq·xp
//
// in both lanes; sums receives alpha, beta and gamma, two lanes each.
//
// Registers: DI sums, SI wp row, DX wq row, CX rows left; X0 alpha,
// X1 beta, X2 gamma.
TEXT ·pairSums(SB), NOSPLIT, $0-56
	MOVQ sums+0(FP), DI
	MOVQ wp_base+8(FP), SI
	MOVQ wp_len+16(FP), CX
	MOVQ wq_base+32(FP), DX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	SHRQ  $1, CX
	JZ    done

	PCALIGN $32
loop:
	MOVUPD (SI), X3
	MOVUPD (DX), X4
	MOVAPD X3, X5
	MULPD  X3, X3 // xp·xp
	MOVAPD X4, X6
	MULPD  X4, X4 // xq·xq
	MULPD  X5, X6 // xq·xp
	ADDPD  X3, X0
	ADDPD  X4, X1
	ADDPD  X6, X2
	ADDQ   $16, SI
	ADDQ   $16, DX
	DECQ   CX
	JNZ    loop

done:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	RET

// func pairRotate(xp, xq []float64, c, s *[2]float64)
//
// Over the len(xp)/2 rows of two interleaved columns, FactorSVD's
//
//	xp' = xp·c − xq·s    xq' = xq·c + xp·s
//
// with each lane's own c and s.
//
// Registers: SI xp row, DX xq row, CX rows left; X8 c, X9 s.
TEXT ·pairRotate(SB), NOSPLIT, $0-64
	MOVQ   xp_base+0(FP), SI
	MOVQ   xp_len+8(FP), CX
	MOVQ   xq_base+24(FP), DX
	MOVQ   c+48(FP), AX
	MOVQ   s+56(FP), BX
	MOVUPD (AX), X8
	MOVUPD (BX), X9
	SHRQ   $1, CX
	JZ     done

	PCALIGN $32
loop:
	MOVUPD (SI), X0
	MOVUPD (DX), X1
	MOVAPD X0, X2
	MULPD  X8, X2 // xp·c
	MOVAPD X1, X3
	MULPD  X9, X3 // xq·s
	SUBPD  X3, X2 // xp·c − xq·s
	MULPD  X9, X0 // xp·s
	MULPD  X8, X1 // xq·c
	ADDPD  X0, X1 // xq·c + xp·s
	MOVUPD X2, (SI)
	MOVUPD X1, (DX)
	ADDQ   $16, SI
	ADDQ   $16, DX
	DECQ   CX
	JNZ    loop

done:
	RET

// func solveLanes8(lu []float64, n int, x []float64)
//
// LU.Solve's substitutions on eight right-hand sides, x[8*i+l] row i
// of lane l, already permuted; four registers of two lanes each:
//
//	forward, i = 1 … n−1:   s = +0;   s += row[j]·x[j], j < i;   x[i] −= s
//	back,    i = n−1 … 0:   s = x[i]; s −= row[j]·x[j], j > i;   x[i] = s / row[i]
//
// with row = lu[i*n : (i+1)*n]. The caller has refused a zero
// diagonal, as Solve's ErrSingular.
//
// Registers: DI lu, SI x, CX n, R12 the lu row stride in bytes, R8 i,
// R10 lu row i, R11 x row i, AX &row[j], BX x row j, DX j left;
// X0–X3 s, X4 row[j] in both lanes.
TEXT ·solveLanes8(SB), NOSPLIT, $0-56
	MOVQ lu_base+0(FP), DI
	MOVQ n+24(FP), CX
	MOVQ x_base+32(FP), SI
	MOVQ CX, R12
	SHLQ $3, R12
	MOVQ $1, R8
	LEAQ (DI)(R12*1), R10
	LEAQ 64(SI), R11

fwd:
	CMPQ  R8, CX
	JGE   back
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	MOVQ  R10, AX
	MOVQ  SI, BX
	MOVQ  R8, DX

	PCALIGN $32
fwdj:
	MOVSD    (AX), X4
	UNPCKLPD X4, X4
	MOVUPD   (BX), X5
	MOVUPD   16(BX), X6
	MOVUPD   32(BX), X7
	MOVUPD   48(BX), X8
	MOVAPD   X4, X9
	MULPD    X5, X9
	ADDPD    X9, X0
	MOVAPD   X4, X10
	MULPD    X6, X10
	ADDPD    X10, X1
	MOVAPD   X4, X11
	MULPD    X7, X11
	ADDPD    X11, X2
	MULPD    X8, X4
	ADDPD    X4, X3
	ADDQ     $8, AX
	ADDQ     $64, BX
	DECQ     DX
	JNZ      fwdj

	MOVUPD (R11), X5
	SUBPD  X0, X5
	MOVUPD X5, (R11)
	MOVUPD 16(R11), X6
	SUBPD  X1, X6
	MOVUPD X6, 16(R11)
	MOVUPD 32(R11), X7
	SUBPD  X2, X7
	MOVUPD X7, 32(R11)
	MOVUPD 48(R11), X8
	SUBPD  X3, X8
	MOVUPD X8, 48(R11)
	INCQ   R8
	ADDQ   R12, R10
	ADDQ   $64, R11
	JMP    fwd

back:
	MOVQ  CX, R8
	DECQ  R8
	JL    done
	MOVQ  R8, AX
	IMULQ R12, AX
	LEAQ  (DI)(AX*1), R10
	MOVQ  R8, AX
	SHLQ  $6, AX
	LEAQ  (SI)(AX*1), R11

bk:
	MOVUPD (R11), X0
	MOVUPD 16(R11), X1
	MOVUPD 32(R11), X2
	MOVUPD 48(R11), X3
	MOVQ   CX, DX
	SUBQ   R8, DX
	DECQ   DX
	JZ     div
	LEAQ   8(R10)(R8*8), AX
	LEAQ   64(R11), BX

	PCALIGN $32
bkj:
	MOVSD    (AX), X4
	UNPCKLPD X4, X4
	MOVUPD   (BX), X5
	MOVUPD   16(BX), X6
	MOVUPD   32(BX), X7
	MOVUPD   48(BX), X8
	MOVAPD   X4, X9
	MULPD    X5, X9
	SUBPD    X9, X0
	MOVAPD   X4, X10
	MULPD    X6, X10
	SUBPD    X10, X1
	MOVAPD   X4, X11
	MULPD    X7, X11
	SUBPD    X11, X2
	MULPD    X8, X4
	SUBPD    X4, X3
	ADDQ     $8, AX
	ADDQ     $64, BX
	DECQ     DX
	JNZ      bkj

div:
	MOVSD    (R10)(R8*8), X4
	UNPCKLPD X4, X4
	DIVPD    X4, X0
	DIVPD    X4, X1
	DIVPD    X4, X2
	DIVPD    X4, X3
	MOVUPD   X0, (R11)
	MOVUPD   X1, 16(R11)
	MOVUPD   X2, 32(R11)
	MOVUPD   X3, 48(R11)
	SUBQ     R12, R10
	SUBQ     $64, R11
	DECQ     R8
	JGE      bk

done:
	RET
