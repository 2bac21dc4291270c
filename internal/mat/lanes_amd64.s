#include "textflag.h"

// Lanes for independent problems. One-sided Jacobi sums and triangular
// substitutions are chains of dependent adds, so one problem cannot
// run faster than its add latency; problems side by side in the lanes
// of one register can. Each lane performs exactly the scalar
// operations of the Go loop it stands for: the same operands in the
// order the Go compiler emits them (the destination operand first,
// which decides a NaN payload when both operands are NaN; in a VEX
// instruction the first source, the middle operand here), accumulators
// from +0 (XORPD, VXORPD) where Go starts from +0, one rounding per
// MULPD, ADDPD, SUBPD or DIVPD and their VEX forms, and no FMA. So
// every lane has the bits of the scalar path: FactorSVD for quadSums,
// quadRotate and quadRotateMask, LU.Solve for solveLanes8, FactorLU's row update for
// subMul. The quad kernels use 256-bit AVX registers, which the caller
// has checked the CPU and the operating system support (hasAVX), and
// clear their upper halves (VZEROUPPER) before every return; the others
// are SSE2, which every amd64 CPU has.
//
// Each loop head carries PCALIGN $32, so a loop's speed does not
// depend on where the linker places the function.

// func quadSums(sums *[12]float64, wp, wq []float64)
//
// Over the len(wp)/4 rows of two interleaved columns, FactorSVD's
//
//	alpha += xp·xp    beta += xq·xq    gamma += xq·xp
//
// in all four lanes; sums receives alpha, beta and gamma, four lanes
// each.
//
// Registers: DI sums, SI wp row, DX wq row, CX rows left; Y0 alpha,
// Y1 beta, Y2 gamma.
TEXT ·quadSums(SB), NOSPLIT, $0-56
	MOVQ   sums+0(FP), DI
	MOVQ   wp_base+8(FP), SI
	MOVQ   wp_len+16(FP), CX
	MOVQ   wq_base+32(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	SHRQ   $2, CX
	JZ     done

	PCALIGN $32
loop:
	VMOVUPD (SI), Y3
	VMOVUPD (DX), Y4
	VMULPD  Y3, Y4, Y5 // xq·xp
	VMULPD  Y3, Y3, Y3 // xp·xp
	VMULPD  Y4, Y4, Y4 // xq·xq
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y1, Y1
	VADDPD  Y5, Y2, Y2
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VZEROUPPER
	RET

// func quadRotate(xp, xq []float64, c, s *[4]float64)
//
// Over the len(xp)/4 rows of two interleaved columns, FactorSVD's
//
//	xp' = xp·c − xq·s    xq' = xq·c + xp·s
//
// with each lane's own c and s.
//
// Registers: SI xp row, DX xq row, CX rows left; Y8 c, Y9 s.
TEXT ·quadRotate(SB), NOSPLIT, $0-64
	MOVQ    xp_base+0(FP), SI
	MOVQ    xp_len+8(FP), CX
	MOVQ    xq_base+24(FP), DX
	MOVQ    c+48(FP), AX
	MOVQ    s+56(FP), BX
	VMOVUPD (AX), Y8
	VMOVUPD (BX), Y9
	SHRQ    $2, CX
	JZ      done

	PCALIGN $32
loop:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMULPD  Y8, Y0, Y2 // xp·c
	VMULPD  Y9, Y1, Y3 // xq·s
	VSUBPD  Y3, Y2, Y2 // xp·c − xq·s
	VMULPD  Y9, Y0, Y0 // xp·s
	VMULPD  Y8, Y1, Y1 // xq·c
	VADDPD  Y0, Y1, Y1 // xq·c + xp·s
	VMOVUPD Y2, (SI)
	VMOVUPD Y1, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func quadRotateMask(xp, xq []float64, c, s *[4]float64, mask *[4]uint64)
//
// quadRotate, kept in the lanes whose mask is all ones; the other
// lanes store back the values they loaded.
//
// Registers: SI xp row, DX xq row, CX rows left; Y8 c, Y9 s, Y10 mask.
TEXT ·quadRotateMask(SB), NOSPLIT, $0-72
	MOVQ    xp_base+0(FP), SI
	MOVQ    xp_len+8(FP), CX
	MOVQ    xq_base+24(FP), DX
	MOVQ    c+48(FP), AX
	MOVQ    s+56(FP), BX
	MOVQ    mask+64(FP), R8
	VMOVUPD (AX), Y8
	VMOVUPD (BX), Y9
	VMOVUPD (R8), Y10
	SHRQ    $2, CX
	JZ      done

	PCALIGN $32
loop:
	VMOVUPD   (SI), Y0
	VMOVUPD   (DX), Y1
	VMULPD    Y8, Y0, Y2 // xp·c
	VMULPD    Y9, Y1, Y3 // xq·s
	VSUBPD    Y3, Y2, Y2 // xp·c − xq·s
	VMULPD    Y9, Y0, Y4 // xp·s
	VMULPD    Y8, Y1, Y5 // xq·c
	VADDPD    Y4, Y5, Y5 // xq·c + xp·s
	VBLENDVPD Y10, Y2, Y0, Y2
	VBLENDVPD Y10, Y5, Y1, Y5
	VMOVUPD   Y2, (SI)
	VMOVUPD   Y5, (DX)
	ADDQ      $32, SI
	ADDQ      $32, DX
	DECQ      CX
	JNZ       loop

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// XCR0, the register of the state components the operating system
// saves.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
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


// func subMul(ri, rk []float64, m float64)
//
// FactorLU's row update over len(ri) elements, two per instruction:
//
//	ri[j] −= rk[j]·m
//
// in the Go compiler's operand order (the product with rk[j] first,
// then ri[j] minus it), an odd last element in the low lane alone.
//
// Registers: DI ri, SI rk, CX elements left; X0 m in both lanes.
TEXT ·subMul(SB), NOSPLIT, $0-56
	MOVQ     ri_base+0(FP), DI
	MOVQ     ri_len+8(FP), CX
	MOVQ     rk_base+24(FP), SI
	MOVSD    m+48(FP), X0
	UNPCKLPD X0, X0
	MOVQ     CX, DX
	SHRQ     $1, DX
	JZ       tail

	PCALIGN $32
loop:
	MOVUPD (SI), X1
	MULPD  X0, X1 // rk·m
	MOVUPD (DI), X2
	SUBPD  X1, X2 // ri − rk·m
	MOVUPD X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   DX
	JNZ    loop

tail:
	ANDQ  $1, CX
	JZ    done
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X2
	SUBSD X1, X2
	MOVSD X2, (DI)

done:
	RET
