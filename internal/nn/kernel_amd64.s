#include "textflag.h"

// SSE2 kernels for the training step's two inner loops (see kernel.go).
// Each lane performs the Go loop's operations in the Go loop's order,
// with MULPD/ADDPD/SUBPD/DIVPD/SQRTPD rounding once per operation, so a
// lane's result equals the scalar result bit for bit (a NaN's payload
// aside). SSE2 is part of the amd64 baseline; there is no fused
// multiply-add here.

// func mulAdd4Kernel(o, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64)
TEXT ·mulAdd4Kernel(SB), NOSPLIT, $0-152
	MOVQ     o_base+0(FP), DI
	MOVQ     o_len+8(FP), CX
	MOVQ     x0_base+24(FP), R8
	MOVQ     x1_base+48(FP), R9
	MOVQ     x2_base+72(FP), R10
	MOVQ     x3_base+96(FP), R11
	MOVSD    c0+120(FP), X8
	MOVSD    c1+128(FP), X9
	MOVSD    c2+136(FP), X10
	MOVSD    c3+144(FP), X11
	UNPCKLPD X8, X8
	UNPCKLPD X9, X9
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	XORQ     AX, AX
	MOVQ     CX, DX
	ANDQ     $-4, DX
	JZ       pair

// Four elements a pass, as two independent pairs.
quad:
	MOVUPD (DI)(AX*8), X0
	MOVUPD 16(DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X1
	MOVUPD 16(R8)(AX*8), X5
	MULPD  X8, X1
	MULPD  X8, X5
	ADDPD  X1, X0
	ADDPD  X5, X4
	MOVUPD (R9)(AX*8), X1
	MOVUPD 16(R9)(AX*8), X5
	MULPD  X9, X1
	MULPD  X9, X5
	ADDPD  X1, X0
	ADDPD  X5, X4
	MOVUPD (R10)(AX*8), X1
	MOVUPD 16(R10)(AX*8), X5
	MULPD  X10, X1
	MULPD  X10, X5
	ADDPD  X1, X0
	ADDPD  X5, X4
	MOVUPD (R11)(AX*8), X1
	MOVUPD 16(R11)(AX*8), X5
	MULPD  X11, X1
	MULPD  X11, X5
	ADDPD  X1, X0
	ADDPD  X5, X4
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X4, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JB     quad

pair:
	MOVQ   CX, DX
	ANDQ   $-2, DX
	CMPQ   AX, DX
	JAE    single
	MOVUPD (DI)(AX*8), X0
	MOVUPD (R8)(AX*8), X1
	MULPD  X8, X1
	ADDPD  X1, X0
	MOVUPD (R9)(AX*8), X1
	MULPD  X9, X1
	ADDPD  X1, X0
	MOVUPD (R10)(AX*8), X1
	MULPD  X10, X1
	ADDPD  X1, X0
	MOVUPD (R11)(AX*8), X1
	MULPD  X11, X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX

single:
	CMPQ  AX, CX
	JAE   done
	MOVSD (DI)(AX*8), X0
	MOVSD (R8)(AX*8), X1
	MULSD X8, X1
	ADDSD X1, X0
	MOVSD (R9)(AX*8), X1
	MULSD X9, X1
	ADDSD X1, X0
	MOVSD (R10)(AX*8), X1
	MULSD X10, X1
	ADDSD X1, X0
	MOVSD (R11)(AX*8), X1
	MULSD X11, X1
	ADDSD X1, X0
	MOVSD X0, (DI)(AX*8)

done:
	RET

// func adamKernel(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64)
TEXT ·adamKernel(SB), NOSPLIT, $0-144
	MOVQ     w_base+0(FP), DI
	MOVQ     w_len+8(FP), CX
	MOVQ     m_base+24(FP), R8
	MOVQ     v_base+48(FP), R9
	MOVQ     g_base+72(FP), R10
	MOVSD    b1+96(FP), X8
	MOVSD    b2+104(FP), X10
	MOVQ     $0x3ff0000000000000, AX // 1.0
	MOVQ     AX, X9
	MOVQ     AX, X11
	SUBSD    X8, X9                  // 1 − b1
	SUBSD    X10, X11                // 1 − b2
	MOVSD    c1+112(FP), X12
	MOVSD    c2+120(FP), X13
	MOVSD    lr+128(FP), X14
	MOVSD    eps+136(FP), X15
	UNPCKLPD X8, X8
	UNPCKLPD X9, X9
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	UNPCKLPD X12, X12
	UNPCKLPD X13, X13
	UNPCKLPD X14, X14
	UNPCKLPD X15, X15
	XORQ     AX, AX
	MOVQ     CX, DX
	ANDQ     $-2, DX
	JZ       adamsingle

adampair:
	MOVUPD (R10)(AX*8), X0 // g
	MOVUPD (R8)(AX*8), X1
	MULPD  X8, X1          // b1·m
	MOVAPD X0, X2
	MULPD  X9, X2          // (1−b1)·g
	ADDPD  X2, X1          // m = b1·m + (1−b1)·g
	MOVUPD X1, (R8)(AX*8)
	MOVUPD (R9)(AX*8), X3
	MULPD  X10, X3         // b2·v
	MOVAPD X0, X4
	MULPD  X11, X4         // (1−b2)·g
	MULPD  X0, X4          // (1−b2)·g·g
	ADDPD  X4, X3          // v = b2·v + (1−b2)·g·g
	MOVUPD X3, (R9)(AX*8)
	DIVPD  X12, X1         // m̂ = m / c1
	DIVPD  X13, X3         // v̂ = v / c2
	SQRTPD X3, X3
	ADDPD  X15, X3         // √v̂ + ε
	MULPD  X14, X1         // lr·m̂
	DIVPD  X3, X1
	MOVUPD (DI)(AX*8), X5
	SUBPD  X1, X5          // w − lr·m̂ / (√v̂ + ε)
	MOVUPD X5, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, DX
	JB     adampair

adamsingle:
	CMPQ   AX, CX
	JAE    adamdone
	MOVSD  (R10)(AX*8), X0
	MOVSD  (R8)(AX*8), X1
	MULSD  X8, X1
	MOVAPD X0, X2
	MULSD  X9, X2
	ADDSD  X2, X1
	MOVSD  X1, (R8)(AX*8)
	MOVSD  (R9)(AX*8), X3
	MULSD  X10, X3
	MOVAPD X0, X4
	MULSD  X11, X4
	MULSD  X0, X4
	ADDSD  X4, X3
	MOVSD  X3, (R9)(AX*8)
	DIVSD  X12, X1
	DIVSD  X13, X3
	SQRTSD X3, X3
	ADDSD  X15, X3
	MULSD  X14, X1
	DIVSD  X3, X1
	MOVSD  (DI)(AX*8), X5
	SUBSD  X1, X5
	MOVSD  X5, (DI)(AX*8)

adamdone:
	RET
